// Shared plumbing of the nvmcp_bench workloads: what a pass measures, the
// workload registry, and the local checkpoint stack every NVM workload
// builds from the library's public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "apps/workload.hpp"
#include "common/json.hpp"
#include "core/config.hpp"
#include "core/manager.hpp"
#include "metrics.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::bench {

/// Each chunk's bytes, in chunk order.
using Payload = std::vector<std::vector<std::byte>>;

/// How one pass over a workload runs.
struct PassOptions {
  std::uint64_t seed = 1;
  std::size_t ops = 1;  // measured primary operations
  int setups = 1;       // set-ups timed; the last one runs the loop
  bool traced = false;  // the tracer is on: also run the probes
};

/// What one pass measured. Every operation and every verification counts
/// as attempted; a failed verification (wrong bytes) also clears correct.
struct Pass {
  std::vector<double> setup_s;  // one entry per set-up
  std::vector<double> op_ms;    // primary-operation latency samples
  double work = 0;              // units of work in the measured window
  double work_seconds = 0;      // ... and the time they took
  double iterations = 0;        // application iterations in the window
  Values layers;                // per-layer counter and stat deltas
  Values probes;                // probe results (traced passes only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Json detail = Json::object();  // resolved knobs, sample counts

  /// Count one operation; a failure is logged and counted.
  void op(bool ok, const std::string& what);
  /// Count one output check; a mismatch also marks the pass incorrect.
  void verify(bool ok, const std::string& what);
  /// Output check of every chunk's bytes against `expected`.
  void verify_bytes(const std::vector<alloc::Chunk*>& chunks,
                    const Payload& expected, const std::string& what);
};

/// One workload; BENCHMARK.json says why each was chosen.
struct Workload {
  const char* name;
  /// Nominal seconds per primary operation: --seconds / nominal_op_s is
  /// the operation count, so a run does the same work on every commit.
  double nominal_op_s;
  Pass (*run)(const PassOptions&);
};

const std::vector<Workload>& workloads();

Pass run_lammps_local(const PassOptions& o);
Pass run_redis_ring(const PassOptions& o);
Pass run_gtc_remote(const PassOptions& o);
Pass run_restart_soft(const PassOptions& o);
Pass run_restart_hard(const PassOptions& o);
Pass run_sim_frontier(const PassOptions& o);

/// Independent seed stream for one purpose (`salt`) of a run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Start the clock of one workload run.
void reset_run_clock();
/// True once the workload run has lasted long enough that loops must wrap
/// up to exit inside the benchmark's time limit (they then report fewer
/// samples).
bool out_of_time();

/// Mark the start of a pass's measured window: a traced pass drops the
/// spans of its set-up and warm-up, so span totals cover the window.
void begin_window(const PassOptions& o);

/// Every knob of one local stack, set explicitly: no field is left at a
/// value the library would resolve from the environment.
struct StackConfig {
  NvmConfig device;
  alloc::ChunkAllocator::Options alloc;
  core::CheckpointConfig ckpt;
};

/// Library defaults, pinned: 400 MiB/s NVMBW_core, one copier, DCPCP,
/// batched re-arm, two-slot layout, raw codec, unthrottled device.
StackConfig default_stack(std::size_t payload_bytes);

/// Library defaults for the remote path, pinned, with the NVMCP_REMOTE_*
/// overrides off and the coordination interval given.
core::RemoteConfig default_remote(double interval);

/// One rank's local checkpoint stack with every chunk of `spec` allocated
/// (persistent) at `scale`. Members are destroyed in reverse order, so the
/// manager stops before its allocator and device go away.
struct LocalStack {
  LocalStack(const StackConfig& cfg, const apps::WorkloadSpec& spec,
             double scale);

  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;  // parallel to spec.chunks
};

/// Sum of the scaled chunk sizes of `spec`.
std::size_t payload_bytes(const apps::WorkloadSpec& spec, double scale);

/// Apply iteration `iter`'s stores of every chunk at once (set-up fills).
void apply_iteration(const apps::WorkloadSpec& spec,
                     const std::vector<alloc::Chunk*>& chunks, int iter,
                     Rng& rng, vmem::TrackMode mode);

Payload snapshot(const std::vector<alloc::Chunk*>& chunks);

/// Configured and resolved knobs of a stack, for the result file.
Json knobs_json(const StackConfig& cfg, const LocalStack& stack);

/// Counter or gauge `name` of a registry (0 when absent).
double metric_value(const telemetry::MetricRegistry& reg,
                    const std::string& name);

/// Probe metrics (alloc.commit_GBps, alloc.restore_GBps,
/// vmem.arm_us_per_chunk, compress.decode_MBps, common.crc64_GBps) on a
/// separate unthrottled stack holding `payload` in the chunks of `spec`.
Values run_probes(const apps::WorkloadSpec& spec, double scale,
                  const Payload& payload);

/// Per-span totals of a trace (count, total and self time; self time
/// subtracts same-thread children) plus the per-layer metrics measured
/// from spans, normalised by the pass's counts.
struct TraceSummary {
  Json spans = Json::object();
  Values layers;
};
TraceSummary summarize_trace(const std::vector<telemetry::TraceEvent>& events,
                             const Pass& pass);

}  // namespace nvmcp::bench
