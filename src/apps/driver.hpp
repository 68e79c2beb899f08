// Multi-rank workload driver: runs a synthetic application (one thread per
// emulated MPI rank) against the real NVM-checkpoint library, reproducing
// the paper's single-node methodology:
//
//   * every rank owns an emulated NVM arena; the effective per-core NVM
//     bandwidth (NVMBW_core) is imposed by the manager's stream limiter,
//     exactly like the paper's injected copy delays;
//   * compute phases are scaled in time, chunk modifications happen at
//     pattern-defined points inside the phase and are tracked by real
//     mprotect faults;
//   * application communication and remote checkpoints share one
//     interconnect, so remote-checkpoint noise emerges as real slowdown;
//   * coordinated local checkpoints are barrier-synchronized across ranks.
//
// Scaling: chunk sizes, compute time and communication bytes all scale by
// the same factor while bandwidths stay at paper values, so every time
// *ratio* (checkpoint/compute, noise fractions, peak rates relative to
// link speed) matches the unscaled system.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "apps/workload.hpp"
#include "core/manager.hpp"
#include "core/remote.hpp"
#include "net/remote_memory.hpp"
#include "telemetry/metrics.hpp"

namespace nvmcp::apps {

struct DriverConfig {
  WorkloadSpec spec = WorkloadSpec::gtc();
  int ranks = 4;
  int iterations = 12;
  double size_scale = 1.0 / 64;  // applied to chunk + comm bytes
  double time_scale = 1.0 / 64;  // applied to compute_per_iter

  core::CheckpointConfig ckpt;   // per-rank policy + NVMBW_core
  bool checkpoint_enabled = true;
  vmem::TrackMode track_mode = vmem::TrackMode::kMprotect;
  /// Committed epochs retained per chunk in every rank's allocator
  /// (ChunkAllocator::Options::ring_depth).
  int ring_depth = 1;

  bool remote_enabled = false;
  core::RemoteConfig remote;
  double link_bw = 5.0e9;        // interconnect bytes/s
  double remote_nvm_bw = 2.0e9;  // buddy node NVM write bandwidth
  double link_timeline_bucket = 0.05;

  std::uint64_t seed = 1234;
};

struct DriverResult {
  double wall_seconds = 0;
  /// Ideal runtime: compute + uncontended communication, no checkpoints.
  double ideal_seconds = 0;
  double efficiency = 0;  // ideal / wall

  core::CheckpointStats ckpt;       // summed over ranks
  std::uint64_t protection_faults = 0;
  /// Per coordinated checkpoint: max blocking time across ranks.
  std::vector<double> blocking_per_checkpoint;

  net::LinkStats link;
  double peak_ckpt_link_rate = 0;
  std::vector<double> ckpt_link_timeline;  // bytes per bucket
  double link_timeline_bucket = 0;
  /// Link-timeline time at which every rank had finished: buckets from
  /// here on carry the final remote seal, not application execution.
  double app_end_link_seconds = 0;
  /// Wall time of the final coordinate_now() that seals the remote cut.
  double final_seal_seconds = 0;

  NvmDeviceStats nvm;  // summed over ranks

  /// Scaled per-rank checkpoint payload (bytes).
  std::size_t ckpt_bytes_per_rank = 0;

  /// Run-level registry: every rank's "ckpt.*"/"restart.*" metrics merged,
  /// plus the helper's "remote.*" and device/link roll-ups ("nvm.*",
  /// "link.*"). Feed this to telemetry::RunReport::add_metrics.
  std::shared_ptr<telemetry::MetricRegistry> metrics;
};

/// Run the workload to completion and gather statistics.
DriverResult run_workload(const DriverConfig& cfg);

/// Convenience: the ideal (no-checkpoint) runtime for a config, computed
/// analytically (compute + comm at full link speed).
double ideal_runtime(const DriverConfig& cfg);

}  // namespace nvmcp::apps
