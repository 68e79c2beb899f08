// Checkpoint-loop workloads. One application thread runs compute phases
// (it sleeps to each store point of the phase, then applies that chunk's
// stores), optional application traffic on a shared link, and a
// coordinated checkpoint every few iterations. gtc_remote adds the remote
// helper, a buddy store and a cutter thread that makes every second
// checkpoint remotely durable.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "apps/workload_exec.hpp"
#include "bench.hpp"
#include "common/clock.hpp"
#include "common/units.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"
#include "vmem/protection.hpp"

namespace nvmcp::bench {
namespace {

using apps::detail::Touch;

struct LoopShape {
  apps::WorkloadSpec spec;
  double scale = 1;
  double phase_s = 0;
  int iters_per_ckpt = 1;
  int ckpts_per_cut = 0;       // 0: local checkpoints only
  std::size_t comm_bytes = 0;  // application traffic per iteration
  double link_bw = 0;
  double remote_nvm_bw = 0;
  int warmup_ops = 0;  // untimed operations before the measured window
  std::uint64_t salt = 0;
  StackConfig stack;
  core::RemoteConfig remote;
};

/// Everything one pass runs on. Members are destroyed in reverse order:
/// the helper stops before the stack it reads, the stack before the link.
struct Node {
  std::unique_ptr<net::Interconnect> link;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> remote_mem;
  std::unique_ptr<LocalStack> local;
  std::unique_ptr<core::RemoteCheckpointer> helper;
  Rng rng{0};
  int next_iter = 0;
};

std::unique_ptr<Node> set_up(const LoopShape& s, std::uint64_t seed,
                             Pass& pass) {
  auto n = std::make_unique<Node>();
  n->local = std::make_unique<LocalStack>(s.stack, s.spec, s.scale);
  n->rng = Rng(derive_seed(seed, s.salt));
  apply_iteration(s.spec, n->local->chunks, 0, n->rng,
                  s.stack.alloc.track_mode);
  n->next_iter = 1;
  n->local->mgr->nvchkptall();
  if (s.ckpts_per_cut > 0) {
    n->link = std::make_unique<net::Interconnect>(s.link_bw, 0.05);
    NvmConfig scfg;
    scfg.capacity =
        round_up(payload_bytes(s.spec, s.scale) * 2 + 16 * MiB, kNvmPageSize);
    scfg.throttle = true;  // the buddy's NVM write bandwidth is a real limit
    scfg.spec.write_bandwidth = s.remote_nvm_bw;
    n->store = std::make_unique<net::RemoteStore>(scfg);
    n->remote_mem =
        std::make_unique<net::RemoteMemory>(*n->link, *n->store);
    n->helper = std::make_unique<core::RemoteCheckpointer>(
        std::vector<core::CheckpointManager*>{n->local->mgr.get()},
        *n->remote_mem, s.remote);
    pass.op(!n->helper->coordinate_now().degraded, "set-up remote cut");
  }
  return n;
}

void run_iteration(Node& n, const LoopShape& s, std::vector<Touch>& touches) {
  const int iter = n.next_iter++;
  touches.clear();
  for (std::size_t i = 0; i < s.spec.chunks.size(); ++i) {
    apps::detail::append_touches(touches, s.spec.chunks[i],
                                 n.local->chunks[i], iter);
  }
  std::stable_sort(touches.begin(), touches.end(),
                   [](const Touch& a, const Touch& b) {
                     return a.frac < b.frac;
                   });
  const Stopwatch phase;
  for (const Touch& t : touches) {
    const double target = t.frac * s.phase_s;
    const double now = phase.elapsed();
    if (target > now) precise_sleep(target - now);
    telemetry::Span span("bench_touch", "bench");
    // Stores are serialized with the checkpoint engine: a store (or its
    // fault) that lands while a pre-copy arms the same chunk can leave the
    // chunk clean and disarmed, and later stores are then never
    // checkpointed (see README, "Findings"). Holding the commit mutex for
    // the store keeps the outputs checkable until the library fixes that.
    const std::lock_guard<std::mutex> lock(n.local->mgr->commit_mutex());
    apps::detail::apply_touch(t, iter, n.rng, s.stack.alloc.track_mode);
  }
  const double left = s.phase_s - phase.elapsed();
  if (left > 0) precise_sleep(left);
  if (s.comm_bytes > 0) {
    telemetry::Span span("bench_app_comm", "bench");
    n.link->transfer(s.comm_bytes, net::TrafficClass::kApplication);
  }
}

/// Committed epoch of every chunk right after a cut's local checkpoint:
/// the remote cut must reach at least these.
std::vector<std::uint64_t> committed_epochs(const LocalStack& st) {
  std::vector<std::uint64_t> out;
  for (const alloc::Chunk* c : st.chunks) {
    const vmem::ChunkRecord& rec = c->record();
    out.push_back(rec.has_committed() ? rec.epoch[rec.committed] : 0);
  }
  return out;
}

/// The benchmark's cutter thread: calls coordinate_now() right after the
/// local checkpoint that completes each cut, and checks the buddy store.
class Cutter {
 public:
  struct Job {
    double start = 0;     // the cut's nvchkptall was called
    double returned = 0;  // ... and returned
    std::vector<std::uint64_t> epochs;
    bool measured = false;
  };
  struct Done {
    Job job;
    double end = 0;  // coordinate_now returned
    bool ok = false;
  };

  Cutter(core::RemoteCheckpointer& helper, net::RemoteStore& store,
         const LocalStack& st)
      : helper_(&helper), store_(&store), rank_(st.mgr->config().rank) {
    for (const alloc::Chunk* c : st.chunks) ids_.push_back(c->id());
    thread_ = std::thread([this] { loop(); });
  }
  ~Cutter() { finish(); }

  Cutter(const Cutter&) = delete;
  Cutter& operator=(const Cutter&) = delete;

  void post(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_all();
  }

  /// Block until every posted cut has been coordinated.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }

  /// Drain, stop and join; results() is stable afterwards.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<Done>& results() const { return done_; }

 private:
  void loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
        busy_ = true;
      }
      Done d;
      try {
        telemetry::Span span("bench_coordinate", "bench");
        d.ok = !helper_->coordinate_now().degraded;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "nvmcp_bench: coordinate_now: %s\n", e.what());
      }
      d.end = now_seconds();
      for (std::size_t i = 0; i < ids_.size(); ++i) {
        if (store_->committed_epoch(rank_, ids_[i]) < job.epochs[i]) {
          d.ok = false;
        }
      }
      d.job = std::move(job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_.push_back(std::move(d));
        busy_ = false;
      }
      cv_.notify_all();
    }
  }

  core::RemoteCheckpointer* helper_;
  net::RemoteStore* store_;
  std::uint32_t rank_;
  std::vector<std::uint64_t> ids_;

  std::mutex mu_;  // guards queue_, busy_, stop_, done_
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::vector<Done> done_;
  std::thread thread_;
};

/// Counter snapshot at the edges of the measured window.
struct Counters {
  NvmDeviceStats dev;
  core::CheckpointStats ckpt;
  double mprotect = 0;
  double gc_passes = 0;
  double gc_reclaimed = 0;
  double remote_busy = 0;
  double precopy_puts = 0;
  double coordinated_puts = 0;
  double retries = 0;
  double degraded = 0;
  double codec_in = 0;
  double codec_out = 0;
  double codec_lz = 0;
  double codec_delta = 0;
  double codec_raw = 0;
  double encode_s = 0;
  double link_ckpt_bytes = 0;
};

Counters read_counters(const Node& n) {
  Counters c;
  c.dev = n.local->dev->stats();
  c.ckpt = n.local->mgr->stats();
  c.mprotect = static_cast<double>(
      vmem::ProtectionManager::instance().total_mprotect_calls());
  const auto& m = n.local->mgr->metrics();
  c.gc_passes = metric_value(m, "epoch.gc.passes");
  c.gc_reclaimed = metric_value(m, "epoch.gc.slots_reclaimed");
  if (n.helper) {
    const auto& r = n.helper->metrics();
    c.remote_busy = metric_value(r, "remote.busy_seconds");
    c.precopy_puts = metric_value(r, "remote.precopy_puts");
    c.coordinated_puts = metric_value(r, "remote.coordinated_puts");
    c.retries = metric_value(r, "remote.put_retries");
    c.degraded = metric_value(r, "remote.degraded_rounds");
    c.codec_in = metric_value(r, "codec.bytes_in");
    c.codec_out = metric_value(r, "codec.bytes_out");
    c.codec_raw = metric_value(r, "codec.choice.raw");
    c.codec_lz = metric_value(r, "codec.choice.lz");
    c.codec_delta = metric_value(r, "codec.choice.delta");
    c.encode_s = metric_value(r, "codec.encode_seconds");
    c.link_ckpt_bytes = static_cast<double>(n.link->stats().checkpoint_bytes);
  }
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Pass run_loop(const LoopShape& s, const PassOptions& o) {
  Pass pass;
  const double payload = static_cast<double>(payload_bytes(s.spec, s.scale));
  std::unique_ptr<Node> node;
  for (int k = 0; k < o.setups; ++k) {
    node.reset();
    const Stopwatch sw;
    node = set_up(s, o.seed, pass);
    pass.setup_s.push_back(sw.elapsed());
  }
  LocalStack& st = *node->local;
  core::CheckpointManager& mgr = *st.mgr;
  const bool remote = s.ckpts_per_cut > 0;
  pass.detail["knobs"] = knobs_json(s.stack, st);
  if (remote) {
    Json& r = pass.detail["knobs"]["remote"];
    r["interval"] = s.remote.interval;
    r["delay_fraction"] = s.remote.delay_fraction;
    r["scan_period"] = s.remote.scan_period;
    r["retry_from_env"] = s.remote.retry_from_env;
    r["resolved_max_attempts"] = node->helper->retry_policy().max_attempts;
    r["resolved_codec"] = core::to_string(node->helper->codec_mode(0));
    r["link_bw"] = s.link_bw;
    r["remote_nvm_bw"] = s.remote_nvm_bw;
  }

  mgr.start();
  if (node->helper) node->helper->start();
  std::optional<Cutter> cutter;
  if (remote) cutter.emplace(*node->helper, *node->store, st);

  const int ckpts_per_op = remote ? s.ckpts_per_cut : 1;
  const double streams = static_cast<double>(mgr.copy_threads());
  std::vector<double> blocking_ms, floor_ms;
  double write_s_inside = 0, occupancy_max = 0;
  std::vector<Touch> touches;
  Counters c0;
  Stopwatch window;
  const std::size_t warmup = static_cast<std::size_t>(s.warmup_ops);
  std::size_t op = 0;
  for (; op < warmup + o.ops; ++op) {
    const bool measured = op >= warmup;
    if (op == warmup) {
      if (cutter) cutter->wait_idle();
      if (node->link) node->link->reset_accounting();
      c0 = read_counters(*node);
      begin_window(o);
      window.reset();
    }
    if (measured && out_of_time()) break;
    for (int k = 0; k < ckpts_per_op; ++k) {
      for (int i = 0; i < s.iters_per_ckpt; ++i) {
        run_iteration(*node, s, touches);
      }
      const NvmDeviceStats d0 = st.dev->stats();
      const double t0 = now_seconds();
      {
        telemetry::Span span("bench_nvchkptall", "bench");
        mgr.nvchkptall();
      }
      const double t1 = now_seconds();
      const NvmDeviceStats d1 = st.dev->stats();
      if (measured) {
        pass.op(true, "nvchkptall");
        const double ms = (t1 - t0) * 1e3;
        blocking_ms.push_back(ms);
        floor_ms.push_back(
            1e3 * floor_seconds(static_cast<double>(d1.bytes_written -
                                                    d0.bytes_written),
                                streams, s.stack.ckpt.nvm_bw_per_core));
        write_s_inside += d1.write_seconds - d0.write_seconds;
        occupancy_max = std::max(occupancy_max, st.dev->occupancy());
        if (!remote) pass.op_ms.push_back(ms);
      }
      if (remote && k == ckpts_per_op - 1) {
        cutter->post(Cutter::Job{t0, t1, committed_epochs(st), measured});
      }
    }
  }
  const double wall = window.elapsed();
  const double ops_done = static_cast<double>(op > warmup ? op - warmup : 0);
  const double iterations = ops_done * ckpts_per_op * s.iters_per_ckpt;
  const double ckpts = static_cast<double>(blocking_ms.size());

  std::vector<double> durable_ms;
  if (cutter) {
    cutter->finish();
    for (const Cutter::Done& d : cutter->results()) {
      pass.op(d.ok, "remote cut");
      if (!d.job.measured) continue;
      pass.op_ms.push_back((d.end - d.job.start) * 1e3);
      durable_ms.push_back((d.end - d.job.returned) * 1e3);
    }
  }
  const Counters c1 = read_counters(*node);

  pass.work = iterations;
  pass.work_seconds = wall;
  pass.iterations = iterations;
  pass.detail["checkpoints"] = ckpts;
  pass.detail["cuts"] = static_cast<double>(durable_ms.size());

  // Bytes come from the device and link counters: ckpt.bytes_* add whole
  // chunk sizes even when the write log copies only ranges.
  Values& L = pass.layers;
  L["core.blocking_p50_ms"] = median(blocking_ms);
  L["core.floor_ms"] = median(floor_ms);
  L["core.excess_ms"] = median_excess(blocking_ms, floor_ms);
  const double hits = static_cast<double>(
      c1.ckpt.chunks_committed_from_precopy -
      c0.ckpt.chunks_committed_from_precopy);
  const double recopied = static_cast<double>(
      c1.ckpt.chunks_recopied_dirty - c0.ckpt.chunks_recopied_dirty);
  L["core.precopy_hit_frac"] = ratio(hits, hits + recopied);
  L["core.skipped_per_ckpt"] =
      ratio(static_cast<double>(c1.ckpt.chunks_skipped_unmodified -
                                c0.ckpt.chunks_skipped_unmodified),
            ckpts);
  L["core.precopy_busy_frac"] =
      ratio(c1.ckpt.precopy_seconds - c0.ckpt.precopy_seconds, wall);
  L["core.efficiency"] = ratio(
      ideal_seconds(iterations * s.phase_s,
                    iterations * static_cast<double>(s.comm_bytes), s.link_bw),
      wall);
  L["vmem.faults_per_ckpt"] = ratio(
      static_cast<double>(c1.ckpt.protection_faults - c0.ckpt.protection_faults),
      ckpts);
  L["vmem.fault_ms_per_ckpt"] =
      ratio(1e3 * (c1.ckpt.fault_seconds - c0.ckpt.fault_seconds), ckpts);
  L["vmem.mprotect_per_ckpt"] = ratio(c1.mprotect - c0.mprotect, ckpts);
  L["vmem.log_bytes_per_ckpt"] = ratio(
      static_cast<double>(c1.ckpt.log_bytes - c0.ckpt.log_bytes), ckpts);
  L["vmem.log_drops"] =
      static_cast<double>(c1.ckpt.log_drops - c0.ckpt.log_drops);
  const double nvm_bytes =
      ratio(static_cast<double>(c1.dev.bytes_written - c0.dev.bytes_written),
            ckpts);
  L["nvm.bytes_per_ckpt"] = nvm_bytes;
  L["nvm.write_ratio"] = ratio(nvm_bytes, payload);
  L["nvm.write_calls_per_ckpt"] = ratio(
      static_cast<double>(c1.dev.write_calls - c0.dev.write_calls), ckpts);
  L["nvm.write_ms_per_ckpt"] = ratio(1e3 * write_s_inside, ckpts);
  L["epoch.gc_passes"] = c1.gc_passes - c0.gc_passes;
  L["epoch.gc_reclaimed_per_ckpt"] =
      ratio(c1.gc_reclaimed - c0.gc_reclaimed, ckpts);
  L["epoch.occupancy_max"] = occupancy_max;
  if (remote) {
    const double cuts = static_cast<double>(durable_ms.size());
    const double pre = c1.precopy_puts - c0.precopy_puts;
    const double coord = c1.coordinated_puts - c0.coordinated_puts;
    const double choices = (c1.codec_raw - c0.codec_raw) +
                           (c1.codec_lz - c0.codec_lz) +
                           (c1.codec_delta - c0.codec_delta);
    const double link_bytes = ratio(c1.link_ckpt_bytes - c0.link_ckpt_bytes,
                                    cuts);
    L["core.durable_p50_ms"] = median(durable_ms);
    L["core.remote_busy_frac"] = ratio(c1.remote_busy - c0.remote_busy, wall);
    L["core.remote_precopy_frac"] = ratio(pre, pre + coord);
    L["core.remote_retries"] = c1.retries - c0.retries;
    L["core.remote_degraded"] = c1.degraded - c0.degraded;
    L["compress.ratio"] =
        ratio(c1.codec_out - c0.codec_out, c1.codec_in - c0.codec_in);
    L["compress.lz_frac"] = ratio(c1.codec_lz - c0.codec_lz, choices);
    L["compress.delta_frac"] = ratio(c1.codec_delta - c0.codec_delta, choices);
    L["compress.encode_MBps"] =
        ratio(c1.codec_in - c0.codec_in, c1.encode_s - c0.encode_s) / 1e6;
    L["net.ckpt_bytes_per_cut"] = link_bytes;
    L["net.link_bytes_ratio"] = ratio(link_bytes, payload);
    L["net.link_peak_MBps"] = node->link->peak_checkpoint_rate() / 1e6;
  }

  // Output checks: a soft restart must restore exactly the DRAM state of
  // the final checkpoint; gtc_remote also hard-restores it from the buddy
  // into a fresh stack.
  if (node->helper) node->helper->stop();
  mgr.stop();
  mgr.nvchkptall();
  if (node->helper) {
    pass.op(!node->helper->coordinate_now().degraded, "final remote cut");
  }
  const Payload golden = snapshot(st.chunks);
  const core::RestartReport soft =
      core::RestartCoordinator(mgr, node->remote_mem.get())
          .restart_after(core::FailureKind::kSoft);
  pass.op(soft.status == RestoreStatus::kOk, "soft restart status");
  pass.verify_bytes(st.chunks, golden, "soft restart bytes");
  if (remote) {
    LocalStack fresh(s.stack, s.spec, s.scale);
    const core::RestartReport hard =
        core::RestartCoordinator(*fresh.mgr, node->remote_mem.get())
            .restart_after(core::FailureKind::kHard);
    pass.op(hard.status == RestoreStatus::kOkFromRemote,
            "hard restore status");
    pass.verify_bytes(fresh.chunks, golden, "hard restore bytes");
  }
  if (o.traced) pass.probes = run_probes(s.spec, s.scale, golden);
  return pass;
}

}  // namespace

Pass run_lammps_local(const PassOptions& o) {
  LoopShape s;
  s.spec = apps::WorkloadSpec::lammps_rhodo();
  s.scale = 1.0 / 32;
  s.phase_s = 0.025;
  s.iters_per_ckpt = 4;
  s.warmup_ops = 5;
  s.salt = 1;
  s.stack = default_stack(payload_bytes(s.spec, s.scale));
  s.stack.ckpt.copy_threads = 2;
  return run_loop(s, o);
}

Pass run_redis_ring(const PassOptions& o) {
  LoopShape s;
  s.spec = apps::WorkloadSpec::redis();
  s.scale = 1.0 / 8;
  s.phase_s = 0.025;
  s.iters_per_ckpt = 4;
  s.salt = 2;
  const std::size_t payload = payload_bytes(s.spec, s.scale);
  s.stack = default_stack(payload);
  s.stack.alloc.track_mode = vmem::TrackMode::kWriteLog;
  s.stack.alloc.ring_depth = 4;
  // Room for every ring slot (depth + 1 per chunk): the GC runs its
  // passes but the device stays below the watermark.
  s.stack.device.capacity = round_up(payload * 6 + 16 * MiB, kNvmPageSize);
  // Fill every ring slot before measuring.
  s.warmup_ops = 6;
  return run_loop(s, o);
}

Pass run_gtc_remote(const PassOptions& o) {
  LoopShape s;
  s.spec = apps::WorkloadSpec::gtc();
  s.scale = 1.0 / 64;
  s.phase_s = 0.02;
  s.iters_per_ckpt = 2;
  s.ckpts_per_cut = 2;
  s.comm_bytes = static_cast<std::size_t>(
      static_cast<double>(s.spec.comm_bytes_per_iter) * s.scale);
  s.link_bw = 200e6;
  s.remote_nvm_bw = 2e9;
  s.warmup_ops = 3;
  s.salt = 3;
  s.stack = default_stack(payload_bytes(s.spec, s.scale));
  s.stack.ckpt.codec_mode = core::CodecMode::kAdaptive;
  // The helper's own timer must never fire a cut: its interval is twice
  // the cut cadence, so eager pre-copy opens at 40% of the cadence.
  const double cadence =
      s.ckpts_per_cut * s.iters_per_ckpt *
      (s.phase_s + static_cast<double>(s.comm_bytes) / s.link_bw);
  s.remote = default_remote(2 * cadence);
  s.remote.delay_fraction = 0.2;
  return run_loop(s, o);
}

}  // namespace nvmcp::bench
