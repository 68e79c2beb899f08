#include "bench.hpp"

#include <cstdio>
#include <cstring>

#include "apps/workload_exec.hpp"
#include "common/clock.hpp"
#include "common/units.hpp"

namespace nvmcp::bench {
namespace {

// A run must exit within 180 s; loops stop starting operations after this.
constexpr double kRunDeadlineSeconds = 150.0;

Stopwatch& run_clock() {
  static Stopwatch clock;
  return clock;
}

}  // namespace

void Pass::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "nvmcp_bench: operation failed: %s\n", what.c_str());
  }
}

void Pass::verify(bool ok, const std::string& what) {
  op(ok, what);
  if (!ok) correct = false;
}

void Pass::verify_bytes(const std::vector<alloc::Chunk*>& chunks,
                        const Payload& expected, const std::string& what) {
  std::string bad;
  if (chunks.size() != expected.size()) bad = "the chunk count";
  for (std::size_t i = 0; bad.empty() && i < chunks.size(); ++i) {
    if (chunks[i]->size() != expected[i].size() ||
        std::memcmp(chunks[i]->data(), expected[i].data(),
                    expected[i].size()) != 0) {
      bad = "chunk " + chunks[i]->name();
    }
  }
  verify(bad.empty(), what + ": " + (bad.empty() ? "equal" : bad + " differs"));
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"lammps_local", 0.11, run_lammps_local},
      {"redis_ring", 0.12, run_redis_ring},
      {"gtc_remote", 0.12, run_gtc_remote},
      {"restart_soft", 0.05, run_restart_soft},
      {"restart_hard", 0.05, run_restart_hard},
      {"sim_frontier", 0.5, run_sim_frontier},
  };
  return list;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

void reset_run_clock() { run_clock().reset(); }

bool out_of_time() { return run_clock().elapsed() > kRunDeadlineSeconds; }

void begin_window(const PassOptions& o) {
  if (o.traced) telemetry::Tracer::instance().clear();
}

StackConfig default_stack(std::size_t payload_bytes) {
  StackConfig s;
  s.device.capacity =
      round_up(payload_bytes * 2 + 16 * MiB, kNvmPageSize);
  s.device.spec = NvmSpec::pcm();
  s.device.backing_file.clear();
  // NVMBW_core is imposed per copier stream by the manager; the device
  // itself stays unthrottled so the limit is not applied twice.
  s.device.throttle = false;
  s.device.track_wear = true;

  s.alloc.track_mode = vmem::TrackMode::kMprotect;
  s.alloc.verify_checksums = true;
  s.alloc.dirty_log_merge_gap = 512;
  s.alloc.dirty_log_max_coverage = 0.5;
  s.alloc.ring_depth = 1;
  s.alloc.shared_dir = nullptr;
  s.alloc.quota = nullptr;

  s.ckpt.local_policy = core::PrecopyPolicy::kDcpcp;
  s.ckpt.nvm_bw_per_core = 400.0 * MiB;
  s.ckpt.copy_threads = 1;
  s.ckpt.precopy_scan_period = 2e-3;
  s.ckpt.dcpc_margin = 1.25;
  s.ckpt.learn_alpha = 0.5;
  s.ckpt.skip_unmodified = true;
  s.ckpt.batch_rearm = 1;
  s.ckpt.epoch_gc_watermark = 0.85;
  s.ckpt.epoch_gc_floor = 2;
  s.ckpt.epoch_gc_period = 2e-3;
  s.ckpt.epoch_gc_background = true;
  s.ckpt.codec_mode = core::CodecMode::kRaw;
  s.ckpt.rank = 0;
  return s;
}

core::RemoteConfig default_remote(double interval) {
  core::RemoteConfig r;
  r.policy = core::PrecopyPolicy::kDcpcp;
  r.interval = interval;
  r.scan_period = 5e-3;
  r.delay_fraction = 0.4;
  r.retry.max_attempts = 4;
  r.retry.phase2_attempts = 2;
  r.retry.put_deadline = 0.5;
  r.retry.backoff_base = 1e-3;
  r.retry.backoff_factor = 2.0;
  r.retry.backoff_max = 50e-3;
  r.retry.jitter = 0.5;
  r.retry.round_budget = 1.0;
  r.retry.isolate_failures = 6;
  r.retry.probation_puts = 3;
  r.retry_from_env = false;
  return r;
}

LocalStack::LocalStack(const StackConfig& cfg, const apps::WorkloadSpec& spec,
                       double scale) {
  dev = std::make_unique<NvmDevice>(cfg.device);
  container = std::make_unique<vmem::Container>(*dev);
  alloc = std::make_unique<alloc::ChunkAllocator>(*container, cfg.alloc);
  mgr = std::make_unique<core::CheckpointManager>(*alloc, cfg.ckpt);
  chunks.reserve(spec.chunks.size());
  for (const apps::ChunkSpec& cs : spec.chunks) {
    chunks.push_back(alloc->nvalloc(alloc::genid(cs.name),
                                    apps::detail::scaled_bytes(cs.bytes, scale),
                                    /*persistent=*/true, cs.name));
  }
}

std::size_t payload_bytes(const apps::WorkloadSpec& spec, double scale) {
  std::size_t total = 0;
  for (const apps::ChunkSpec& cs : spec.chunks) {
    total += apps::detail::scaled_bytes(cs.bytes, scale);
  }
  return total;
}

void apply_iteration(const apps::WorkloadSpec& spec,
                     const std::vector<alloc::Chunk*>& chunks, int iter,
                     Rng& rng, vmem::TrackMode mode) {
  std::vector<apps::detail::Touch> touches;
  for (std::size_t i = 0; i < spec.chunks.size(); ++i) {
    apps::detail::append_touches(touches, spec.chunks[i], chunks[i], iter);
  }
  for (const auto& t : touches) apps::detail::apply_touch(t, iter, rng, mode);
}

Payload snapshot(const std::vector<alloc::Chunk*>& chunks) {
  Payload p;
  p.reserve(chunks.size());
  for (const alloc::Chunk* c : chunks) {
    const auto* b = static_cast<const std::byte*>(c->data());
    p.emplace_back(b, b + c->size());
  }
  return p;
}


Json knobs_json(const StackConfig& cfg, const LocalStack& stack) {
  Json k = Json::object();
  Json& d = k["device"];
  d["capacity"] = cfg.device.capacity;
  d["spec"] = cfg.device.spec.name;
  d["write_bandwidth"] = cfg.device.spec.write_bandwidth;
  d["read_bandwidth"] = cfg.device.spec.read_bandwidth;
  d["file_backed"] = !cfg.device.backing_file.empty();
  d["throttle"] = cfg.device.throttle;
  d["track_wear"] = cfg.device.track_wear;

  Json& a = k["alloc"];
  a["track_mode"] = vmem::to_string(cfg.alloc.track_mode);
  a["verify_checksums"] = cfg.alloc.verify_checksums;
  a["dirty_log_merge_gap"] = cfg.alloc.dirty_log_merge_gap;
  a["dirty_log_max_coverage"] = cfg.alloc.dirty_log_max_coverage;
  a["ring_depth"] = cfg.alloc.ring_depth;
  a["resolved_ring_depth"] = stack.alloc->ring_depth();

  Json& c = k["ckpt"];
  c["local_policy"] = core::to_string(cfg.ckpt.local_policy);
  c["nvm_bw_per_core"] = cfg.ckpt.nvm_bw_per_core;
  c["copy_threads"] = cfg.ckpt.copy_threads;
  c["resolved_copy_threads"] = stack.mgr->copy_threads();
  c["precopy_scan_period"] = cfg.ckpt.precopy_scan_period;
  c["dcpc_margin"] = cfg.ckpt.dcpc_margin;
  c["learn_alpha"] = cfg.ckpt.learn_alpha;
  c["skip_unmodified"] = cfg.ckpt.skip_unmodified;
  c["batch_rearm"] = cfg.ckpt.batch_rearm;
  c["epoch_gc_watermark"] = cfg.ckpt.epoch_gc_watermark;
  c["epoch_gc_floor"] = cfg.ckpt.epoch_gc_floor;
  c["epoch_gc_period"] = cfg.ckpt.epoch_gc_period;
  c["epoch_gc_background"] = cfg.ckpt.epoch_gc_background;
  c["codec_mode"] = core::to_string(cfg.ckpt.codec_mode);
  c["rank"] = cfg.ckpt.rank;
  if (const epoch::EpochGc* gc = stack.mgr->epoch_gc()) {
    c["resolved_gc_watermark"] = gc->watermark();
    c["resolved_gc_floor"] = gc->floor();
  }
  return k;
}

double metric_value(const telemetry::MetricRegistry& reg,
                    const std::string& name) {
  if (const auto* c = reg.find_counter(name)) {
    return static_cast<double>(c->value());
  }
  if (const auto* g = reg.find_gauge(name)) return g->value();
  return 0;
}

}  // namespace nvmcp::bench
