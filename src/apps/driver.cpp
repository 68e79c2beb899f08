#include "apps/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "apps/workload_exec.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::apps {
namespace {

// The touch machinery (scaled sizes, per-pattern stores, phase schedules)
// lives in workload_exec.{hpp,cpp}, shared with the fleet driver.
using detail::Touch;
using detail::append_touches;
using detail::apply_touch;
using detail::scaled_bytes;

struct RankContext {
  std::unique_ptr<NvmDevice> device;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> allocator;
  std::unique_ptr<core::CheckpointManager> manager;
  std::vector<alloc::Chunk*> chunks;  // parallel to cfg.spec.chunks
  Rng rng{0};
  double blocking_sum = 0;
};

}  // namespace

double ideal_runtime(const DriverConfig& cfg) {
  const double compute = static_cast<double>(cfg.iterations) *
                         cfg.spec.compute_per_iter * cfg.time_scale;
  const double comm_bytes =
      static_cast<double>(cfg.iterations) *
      static_cast<double>(cfg.spec.comm_bytes_per_iter) * cfg.size_scale;
  // All ranks communicate concurrently over the shared link.
  const double comm =
      comm_bytes * static_cast<double>(cfg.ranks) / cfg.link_bw;
  return compute + comm;
}

DriverResult run_workload(const DriverConfig& cfg) {
  init_log_from_env();
  const int R = cfg.ranks;
  if (R <= 0) throw NvmcpError("driver: ranks must be positive");

  // Node-level fabric + buddy store.
  net::Interconnect link(cfg.link_bw, cfg.link_timeline_bucket);
  std::optional<net::RemoteStore> store;
  std::optional<net::RemoteMemory> remote_mem;

  // Per-rank NVM stacks.
  std::vector<RankContext> ranks(static_cast<std::size_t>(R));
  std::size_t per_rank_bytes = 0;
  for (const auto& cs : cfg.spec.chunks) {
    per_rank_bytes += scaled_bytes(cs.bytes, cfg.size_scale);
  }
  const std::size_t capacity =
      round_up(per_rank_bytes * 2 + 8 * MiB, kNvmPageSize);

  for (int r = 0; r < R; ++r) {
    auto& ctx = ranks[static_cast<std::size_t>(r)];
    NvmConfig ncfg;
    ncfg.capacity = capacity;
    // Bandwidth shaping is done per-core via the manager's stream limiter
    // (the paper's emulation methodology); the device itself is unthrottled
    // so per-rank arenas do not double-count the device limit.
    ncfg.throttle = false;
    ctx.device = std::make_unique<NvmDevice>(ncfg);
    ctx.container = std::make_unique<vmem::Container>(*ctx.device);
    alloc::ChunkAllocator::Options aopts;
    aopts.track_mode = cfg.track_mode;
    aopts.ring_depth = cfg.ring_depth;
    ctx.allocator =
        std::make_unique<alloc::ChunkAllocator>(*ctx.container, aopts);
    core::CheckpointConfig ccfg = cfg.ckpt;
    ccfg.rank = static_cast<std::uint32_t>(r);
    ctx.manager =
        std::make_unique<core::CheckpointManager>(*ctx.allocator, ccfg);
    ctx.rng = Rng(cfg.seed + static_cast<std::uint64_t>(r) * 7919);

    for (const auto& cs : cfg.spec.chunks) {
      alloc::Chunk* c = ctx.allocator->nvalloc(
          alloc::genid(cs.name), scaled_bytes(cs.bytes, cfg.size_scale),
          /*persistent=*/true, cs.name);
      ctx.chunks.push_back(c);
    }
  }

  std::optional<core::RemoteCheckpointer> remote_ckpt;
  if (cfg.remote_enabled) {
    NvmConfig scfg;
    scfg.capacity = round_up(
        per_rank_bytes * 2 * static_cast<std::size_t>(R) + 8 * MiB,
        kNvmPageSize);
    scfg.throttle = true;  // remote NVM write bandwidth is a real limit
    scfg.spec.write_bandwidth = cfg.remote_nvm_bw;
    store.emplace(scfg);
    remote_mem.emplace(link, *store);
    std::vector<core::CheckpointManager*> mgrs;
    for (auto& ctx : ranks) mgrs.push_back(ctx.manager.get());
    remote_ckpt.emplace(mgrs, *remote_mem, cfg.remote);
  }

  const double phase = cfg.spec.compute_per_iter * cfg.time_scale;
  const std::size_t comm_bytes = static_cast<std::size_t>(
      static_cast<double>(cfg.spec.comm_bytes_per_iter) * cfg.size_scale);

  CyclicBarrier barrier(static_cast<std::size_t>(R));
  std::mutex blocking_mu;
  std::vector<double> blocking_events;  // max across ranks per checkpoint
  std::vector<double> blocking_this_event(static_cast<std::size_t>(R));

  for (auto& ctx : ranks) ctx.manager->start();
  if (remote_ckpt) remote_ckpt->start();

  const Stopwatch wall;
  auto rank_body = [&](std::size_t r) {
    RankContext& ctx = ranks[r];
    for (int iter = 0; iter < cfg.iterations; ++iter) {
      // Build this iteration's modification schedule.
      std::vector<Touch> touches;
      for (std::size_t i = 0; i < cfg.spec.chunks.size(); ++i) {
        append_touches(touches, cfg.spec.chunks[i], ctx.chunks[i], iter);
      }
      std::sort(touches.begin(), touches.end(),
                [](const Touch& a, const Touch& b) {
                  return a.frac < b.frac;
                });

      // Compute phase: sleep to each touch point, modify the chunk.
      {
        telemetry::Span span("compute_phase", "app");
        const Stopwatch phase_sw;
        for (const Touch& t : touches) {
          const double target = t.frac * phase;
          const double now = phase_sw.elapsed();
          if (target > now) precise_sleep(target - now);
          apply_touch(t, iter, ctx.rng, cfg.track_mode);
        }
        const double left = phase - phase_sw.elapsed();
        if (left > 0) precise_sleep(left);
      }

      // Communication phase (shared link -> checkpoint noise is real).
      if (comm_bytes > 0) {
        telemetry::Span span("comm_phase", "app");
        link.transfer(comm_bytes, net::TrafficClass::kApplication);
      }

      // Coordinated local checkpoint.
      if (cfg.checkpoint_enabled &&
          (iter + 1) % cfg.spec.iters_per_checkpoint == 0) {
        barrier.arrive_and_wait();
        const double blocking = ctx.manager->nvchkptall();
        ctx.blocking_sum += blocking;
        blocking_this_event[r] = blocking;
        if (barrier.arrive_and_wait()) {
          std::lock_guard<std::mutex> lock(blocking_mu);
          blocking_events.push_back(*std::max_element(
              blocking_this_event.begin(), blocking_this_event.end()));
        }
        barrier.arrive_and_wait();
      }
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
      threads.emplace_back(rank_body, static_cast<std::size_t>(r));
    }
    for (auto& t : threads) t.join();
  }
  const double wall_secs = wall.elapsed();
  DriverResult out;
  out.app_end_link_seconds = link.timeline_seconds();

  for (auto& ctx : ranks) ctx.manager->stop();
  if (remote_ckpt) {
    const Stopwatch seal_sw;
    remote_ckpt->coordinate_now();
    out.final_seal_seconds = seal_sw.elapsed();
    remote_ckpt->stop();
  }

  out.wall_seconds = wall_secs;
  out.ideal_seconds = ideal_runtime(cfg);
  out.efficiency = out.ideal_seconds / wall_secs;
  out.ckpt_bytes_per_rank = per_rank_bytes;
  for (auto& ctx : ranks) {
    const core::CheckpointStats s = ctx.manager->stats();
    out.ckpt.local_checkpoints += s.local_checkpoints;
    out.ckpt.local_blocking_seconds += s.local_blocking_seconds;
    out.ckpt.bytes_coordinated += s.bytes_coordinated;
    out.ckpt.bytes_precopied += s.bytes_precopied;
    out.ckpt.precopy_seconds += s.precopy_seconds;
    out.ckpt.precopy_passes += s.precopy_passes;
    out.ckpt.chunks_committed_from_precopy += s.chunks_committed_from_precopy;
    out.ckpt.chunks_recopied_dirty += s.chunks_recopied_dirty;
    out.ckpt.chunks_skipped_unmodified += s.chunks_skipped_unmodified;
    out.ckpt.protection_faults += s.protection_faults;
    out.ckpt.fault_seconds += s.fault_seconds;
    out.ckpt.log_bytes += s.log_bytes;
    out.ckpt.log_drops += s.log_drops;
    out.protection_faults += s.protection_faults;
    const NvmDeviceStats d = ctx.device->stats();
    out.nvm.bytes_written += d.bytes_written;
    out.nvm.bytes_read += d.bytes_read;
    out.nvm.write_calls += d.write_calls;
    out.nvm.max_page_wear = std::max(out.nvm.max_page_wear, d.max_page_wear);
  }
  out.blocking_per_checkpoint = blocking_events;

  // Merge every rank's registry (plus the helper's) into one run-level
  // registry, then roll device/link stats in as gauges so a RunReport can
  // serialize the entire run from a single snapshot.
  out.metrics = std::make_shared<telemetry::MetricRegistry>();
  for (auto& ctx : ranks) out.metrics->merge(ctx.manager->metrics());
  if (remote_ckpt) out.metrics->merge(remote_ckpt->metrics());
  // Per-chunk tracker sums merge-add correctly across ranks, but the
  // mprotect counter is process-global (ProtectionManager singleton): the
  // merged gauge would count it R times, so overwrite it with the truth.
  out.ckpt.mprotect_calls =
      vmem::ProtectionManager::instance().total_mprotect_calls();
  out.metrics->gauge("vmem.mprotect_calls")
      .set(static_cast<double>(out.ckpt.mprotect_calls));
  out.metrics->gauge("nvm.bytes_written")
      .set(static_cast<double>(out.nvm.bytes_written));
  out.metrics->gauge("nvm.bytes_read")
      .set(static_cast<double>(out.nvm.bytes_read));
  out.metrics->gauge("nvm.write_calls")
      .set(static_cast<double>(out.nvm.write_calls));
  out.metrics->gauge("nvm.max_page_wear")
      .set(static_cast<double>(out.nvm.max_page_wear));
  const net::LinkStats ls = link.stats();
  out.metrics->gauge("link.app_bytes")
      .set(static_cast<double>(ls.app_bytes));
  out.metrics->gauge("link.checkpoint_bytes")
      .set(static_cast<double>(ls.checkpoint_bytes));
  out.metrics->gauge("link.peak_ckpt_rate").set(link.peak_checkpoint_rate());

  out.link = link.stats();
  out.peak_ckpt_link_rate = link.peak_checkpoint_rate();
  out.link_timeline_bucket = link.checkpoint_timeline().bucket_width();
  for (std::size_t i = 0; i < link.checkpoint_timeline().size(); ++i) {
    out.ckpt_link_timeline.push_back(link.checkpoint_timeline().value(i));
  }
  return out;
}

}  // namespace nvmcp::apps
