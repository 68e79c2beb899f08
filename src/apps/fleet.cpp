#include "apps/fleet.hpp"

#include <algorithm>
#include <thread>

#include "apps/workload_exec.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "epoch/directory.hpp"

namespace nvmcp::apps {

using detail::Touch;

FleetConfig FleetConfig::standard_fleet() {
  FleetConfig cfg;
  cfg.scheduler_bw = 600.0 * MiB;  // a PCM-class device's write cap

  FleetTenantConfig redis;
  redis.name = "redis";
  redis.spec = WorkloadSpec::redis();
  redis.priority = 2;  // latency-sensitive: commits must stay short
  redis.quota_bytes = 0;
  cfg.tenants.push_back(std::move(redis));

  FleetTenantConfig graph;
  graph.name = "graph500";
  graph.spec = WorkloadSpec::graph500();
  graph.priority = 1;
  cfg.tenants.push_back(std::move(graph));

  FleetTenantConfig gtc;
  gtc.name = "gtc";
  gtc.spec = WorkloadSpec::gtc();
  gtc.priority = 0;  // bulk background science
  cfg.tenants.push_back(std::move(gtc));
  return cfg;
}

FleetResult run_fleet(const FleetConfig& cfg) {
  init_log_from_env();
  if (cfg.tenants.empty()) throw NvmcpError("fleet: no tenants");

  // Size the shared arena: every tenant's scaled checkpoint set can hold
  // ring_depth committed epochs plus an in-progress slot, with headroom
  // for the metadata region.
  const std::uint32_t depth = epoch::resolve_ring_depth(cfg.ring_depth);
  std::vector<std::size_t> tenant_bytes;
  std::size_t total = 0;
  for (const FleetTenantConfig& t : cfg.tenants) {
    std::size_t b = 0;
    for (const ChunkSpec& cs : t.spec.chunks) {
      b += detail::scaled_bytes(cs.bytes, cfg.size_scale);
    }
    tenant_bytes.push_back(b);
    total += b;
  }
  NvmConfig ncfg = cfg.device;
  if (ncfg.capacity == 0) {
    ncfg.capacity =
        round_up(total * (depth + 2) + 16 * MiB, kNvmPageSize);
  }

  tenant::TenantArena::Options aopts;
  aopts.device = ncfg;
  aopts.ring_depth = cfg.ring_depth;
  aopts.max_inflight = cfg.max_inflight;
  aopts.scheduler_bw = cfg.scheduler_bw;
  tenant::TenantArena arena(aopts);

  struct TenantRun {
    tenant::TenantHandle* handle = nullptr;
    std::vector<alloc::Chunk*> chunks;  // parallel to spec.chunks
    Rng rng{0};
    FleetTenantResult result;
  };
  std::vector<TenantRun> runs(cfg.tenants.size());
  for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
    const FleetTenantConfig& tc = cfg.tenants[i];
    tenant::TenantSpec spec;
    spec.name = tc.name;
    spec.quota_bytes = tc.quota_bytes;
    spec.priority = tc.priority;
    spec.weight = tc.weight;
    spec.track_mode = tc.track_mode;
    spec.ckpt = tc.ckpt;
    TenantRun& run = runs[i];
    run.handle = &arena.create_tenant(spec);
    run.rng = Rng(cfg.seed + i * 7919);
    run.result.name = tc.name;
    for (const ChunkSpec& cs : tc.spec.chunks) {
      run.chunks.push_back(run.handle->nvalloc(
          cs.name, detail::scaled_bytes(cs.bytes, cfg.size_scale),
          /*persistent=*/true));
    }
  }

  const Stopwatch wall;
  auto tenant_body = [&](std::size_t i) {
    const FleetTenantConfig& tc = cfg.tenants[i];
    TenantRun& run = runs[i];
    const double phase = tc.spec.compute_per_iter * cfg.time_scale;
    const Stopwatch tenant_sw;
    for (int iter = 0; iter < tc.iterations; ++iter) {
      std::vector<Touch> touches;
      for (std::size_t c = 0; c < tc.spec.chunks.size(); ++c) {
        detail::append_touches(touches, tc.spec.chunks[c], run.chunks[c],
                               iter);
      }
      std::sort(touches.begin(), touches.end(),
                [](const Touch& a, const Touch& b) {
                  return a.frac < b.frac;
                });
      const Stopwatch phase_sw;
      for (const Touch& t : touches) {
        const double target = t.frac * phase;
        const double now = phase_sw.elapsed();
        if (target > now) precise_sleep(target - now);
        detail::apply_touch(t, iter, run.rng, tc.track_mode);
      }
      const double left = phase - phase_sw.elapsed();
      if (left > 0) precise_sleep(left);

      if ((iter + 1) % tc.spec.iters_per_checkpoint == 0) {
        const tenant::TenantHandle::CommitResult r =
            run.handle->checkpoint();
        run.result.admission_wait_sum += r.admission_wait;
        if (r.admitted) {
          ++run.result.commits;
          run.result.blocking_sum += r.blocking;
        } else {
          ++run.result.rejected;
        }
      }
    }
    run.result.wall_seconds = tenant_sw.elapsed();
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      threads.emplace_back(tenant_body, i);
    }
    for (auto& t : threads) t.join();
  }

  FleetResult out;
  out.wall_seconds = wall.elapsed();
  arena.refresh_metrics();
  out.metrics = std::make_shared<telemetry::MetricRegistry>();
  out.metrics->merge(arena.metrics());
  for (TenantRun& run : runs) {
    run.result.granted_bw_last = run.handle->granted_bw();
    run.result.quota_peak = run.handle->quota().peak();
    run.result.quota_limit = run.handle->quota().limit();
    out.metrics->merge(run.handle->manager().metrics());
    out.tenants.push_back(std::move(run.result));
  }
  return out;
}

}  // namespace nvmcp::apps
