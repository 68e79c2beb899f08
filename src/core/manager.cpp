#include "core/manager.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <future>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::core {

std::vector<std::vector<alloc::Chunk*>> shard_by_size(
    std::vector<alloc::Chunk*> work, std::size_t shards) {
  std::stable_sort(work.begin(), work.end(),
                   [](const alloc::Chunk* a, const alloc::Chunk* b) {
                     return a->size() > b->size();
                   });
  std::vector<std::vector<alloc::Chunk*>> out(shards);
  std::vector<std::uint64_t> load(shards, 0);
  for (alloc::Chunk* c : work) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    out[best].push_back(c);
    load[best] += c->size();
  }
  return out;
}

std::size_t resolve_copy_threads(std::size_t configured) {
  if (configured != 0) return configured;
  const std::int64_t v = env::get_i64("NVMCP_COPY_THREADS", 0, 0, 64);
  return v <= 0 ? 1 : static_cast<std::size_t>(v);
}

bool resolve_batch_rearm(int configured) {
  if (configured == 0) return false;
  if (configured > 0) return true;
  return env::get_bool("NVMCP_BATCH_REARM", true);
}

CodecMode resolve_codec_mode(CodecMode configured) {
  if (configured != CodecMode::kUnset) return configured;
  const std::string v = env::get_string("NVMCP_CODEC", "raw");
  if (v == "lz") return CodecMode::kLz;
  if (v == "adaptive") return CodecMode::kAdaptive;
  return CodecMode::kRaw;
}

CheckpointManager::CheckpointManager(alloc::ChunkAllocator& allocator,
                                     CheckpointConfig cfg)
    : alloc_(&allocator), cfg_(cfg), prediction_(cfg.learn_alpha),
      copy_threads_(resolve_copy_threads(cfg.copy_threads)),
      batch_rearm_(resolve_batch_rearm(cfg.batch_rearm)) {
  // Worker 0 is whichever thread calls in; the pool runs the others.
  if (copy_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(copy_threads_ - 1);
  }
  worker_streams_.reserve(copy_threads_);
  for (std::size_t i = 0; i < copy_threads_; ++i) {
    worker_streams_.push_back(
        std::make_unique<BandwidthLimiter>(cfg.nvm_bw_per_core));
  }
  // Depth 1 keeps one retained epoch, which the next commit reuses: there
  // is nothing for a GC to trim. An arena-owned (shared) directory means
  // the arena owns GC policy too: a per-tenant manager must not run a
  // device-wide reclamation thread.
  if (alloc_->ring_depth() > 1 && alloc_->owns_directory()) {
    epoch::EpochGc::Options gopts;
    gopts.watermark = cfg_.epoch_gc_watermark;
    gopts.floor = cfg_.epoch_gc_floor;
    gopts.period = cfg_.epoch_gc_period;
    gc_ = std::make_unique<epoch::EpochGc>(*alloc_->epoch_directory(), gopts,
                                           &metrics_);
  }
  // A ring picks the slot a commit reuses by epoch age, so epochs must
  // keep increasing across sessions: restarting at 1 over a reopened
  // device would make the newest committed slot look like the oldest.
  next_epoch_.store(alloc_->epoch_directory()->newest_epoch() + 1,
                    std::memory_order_release);
  interval_start_ = now_seconds();
  m_.local_checkpoints = &metrics_.counter("ckpt.local_checkpoints");
  m_.bytes_coordinated = &metrics_.counter("ckpt.bytes_coordinated");
  m_.bytes_precopied = &metrics_.counter("ckpt.bytes_precopied");
  m_.precopy_passes = &metrics_.counter("ckpt.precopy_passes");
  m_.precopy_refused = &metrics_.counter("ckpt.precopy_refused");
  m_.committed_from_precopy =
      &metrics_.counter("ckpt.chunks_committed_from_precopy");
  m_.recopied_dirty = &metrics_.counter("ckpt.chunks_recopied_dirty");
  m_.skipped_unmodified = &metrics_.counter("ckpt.chunks_skipped_unmodified");
  m_.deferred_restoring =
      &metrics_.counter("ckpt.chunks_deferred_restoring");
  m_.blocking_seconds = &metrics_.gauge("ckpt.blocking_seconds");
  m_.precopy_seconds = &metrics_.gauge("ckpt.precopy_seconds");
  m_.protection_faults = &metrics_.gauge("ckpt.protection_faults");
  m_.vmem_faults = &metrics_.gauge("vmem.faults");
  m_.vmem_fault_seconds = &metrics_.gauge("vmem.fault_seconds");
  m_.vmem_mprotect_calls = &metrics_.gauge("vmem.mprotect_calls");
  m_.vmem_log_bytes = &metrics_.gauge("vmem.log.bytes");
  m_.vmem_log_drops = &metrics_.gauge("vmem.log.drops");
  // Blocking times: interesting range spans sub-ms commit flips to
  // multi-second full copies; 1 ms buckets to 5 s.
  m_.blocking_hist =
      &metrics_.histogram("ckpt.blocking_seconds_hist", 0.0, 5.0, 5000);
}

CheckpointManager::~CheckpointManager() { stop(); }

void CheckpointManager::start() {
  // The ring GC runs even under kNone: saturation is a property of the
  // device, not of the pre-copy policy.
  if (gc_ && cfg_.epoch_gc_background) gc_->start();
  if (cfg_.local_policy == PrecopyPolicy::kNone) return;
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  engine_ = std::thread([this] { precopy_loop(); });
}

void CheckpointManager::stop() {
  if (gc_) gc_->stop();
  if (!running_.exchange(false)) {
    if (engine_.joinable()) engine_.join();
    return;
  }
  engine_cv_.notify_all();
  if (engine_.joinable()) engine_.join();
}

void CheckpointManager::run_sharded(
    const std::vector<alloc::Chunk*>& work,
    const std::function<void(alloc::Chunk&, BandwidthLimiter*)>& op) {
  const auto shards = shard_by_size(work, copy_threads_);
  std::vector<std::future<void>> futs;
  for (std::size_t w = 1; w < shards.size(); ++w) {
    if (shards[w].empty()) continue;
    futs.push_back(pool_->submit([&op, &shard = shards[w], s = stream(w)] {
      for (alloc::Chunk* c : shard) op(*c, s);
    }));
  }
  std::exception_ptr first;
  try {
    for (alloc::Chunk* c : shards[0]) op(*c, stream(0));
  } catch (...) {
    first = std::current_exception();
  }
  // Join every pool task before surfacing a failure so no task outlives
  // the shard vectors (or the lock the caller holds).
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

double CheckpointManager::learned_interval() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  return learned_interval_;
}

double CheckpointManager::learned_data_size() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  return learned_data_;
}

bool CheckpointManager::threshold_reached() const {
  std::lock_guard<std::mutex> lock(learn_mu_);
  if (learned_interval_ <= 0) return false;  // still in the learning phase
  // Under a tenant trunk the DCPC threshold adapts to the *granted* rate:
  // less bandwidth means copies take longer, so pre-copy starts earlier.
  double rate = stream(0)->rate();
  if (rate <= 0) {
    rate = alloc_->container().device().config().spec.write_bandwidth;
  }
  const double t_c = learned_data_ / rate;           // checkpoint time
  const double t_p = learned_interval_ - cfg_.dcpc_margin * t_c;  // threshold
  return now_seconds() - interval_start_ >= std::max(0.0, t_p);
}

void CheckpointManager::precopy_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(engine_mu_);
      engine_cv_.wait_for(
          lock,
          std::chrono::duration<double>(cfg_.precopy_scan_period),
          [this] { return !running_.load(std::memory_order_acquire); });
    }
    if (!running_.load(std::memory_order_acquire)) return;

    const bool delayed = cfg_.local_policy == PrecopyPolicy::kDcpc ||
                         cfg_.local_policy == PrecopyPolicy::kDcpcp;
    if (delayed && !threshold_reached()) continue;

    // The application may nvdelete chunks while this thread works from
    // its snapshot: every touch of a chunk goes through with_live.
    std::vector<alloc::Chunk*> eligible;
    alloc_->with_live(alloc_->chunks(), [&](const auto& live) {
      for (alloc::Chunk* c : live) {
        if (!c->persistent() || !c->dirty_local()) continue;
        if (restoring_.load(std::memory_order_acquire) &&
            restore_deferred(c->id())) {
          continue;  // still streaming in: nothing meaningful to pre-copy
        }
        if (cfg_.local_policy == PrecopyPolicy::kDcpcp &&
            !prediction_.ready_for_precopy(
                c->id(),
                c->tracker().mods_in_interval.load(
                    std::memory_order_acquire))) {
          continue;  // hot chunk: expected to be modified again, skip
        }
        eligible.push_back(c);
      }
    });

    // Up to copy_threads_ chunks move concurrently per batch, each on its
    // own NVMBW_core stream. The checkpoint mutex is held per batch (not
    // for the whole scan) so the coordinated step can still preempt
    // between batches.
    for (std::size_t i = 0; i < eligible.size(); i += copy_threads_) {
      if (!running_.load(std::memory_order_acquire)) return;
      const std::size_t end = std::min(eligible.size(), i + copy_threads_);
      precopy_batch({eligible.begin() + static_cast<std::ptrdiff_t>(i),
                     eligible.begin() + static_cast<std::ptrdiff_t>(end)});
    }
  }
}

void CheckpointManager::precopy_batch(
    const std::vector<alloc::Chunk*>& batch) {
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> refused{0};
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("precopy_batch", "ckpt.local");
  // The epoch is read under the commit mutex, not at scan time: a
  // coordinated step between the scan and this batch advances it, and a
  // copy tagged with the stale epoch would clear the dirty flag without
  // ever being committed -- the next step would skip the chunk as
  // unmodified and lose its stores.
  const std::uint64_t epoch = next_epoch();
  alloc_->with_live(batch, [&](const std::vector<alloc::Chunk*>& live) {
    // Batched re-arm: one coalesced protect_batch instead of one mprotect
    // per chunk in each worker; precopy_chunk still re-arms a chunk a
    // fault or notify disarmed since (see arm_chunks).
    const bool batched = batch_rearm_ && live.size() > 1;
    if (batched) alloc_->arm_chunks(live);
    run_sharded(live, [&, batched](alloc::Chunk& c, BandwidthLimiter* s) {
      if (!c.dirty_local()) return;  // raced with the coordinated step
      double secs;
      try {
        secs = alloc_->precopy_chunk(c, epoch, s, batched);
      } catch (const NvmcpError&) {
        // No ring slot to be had (the tenant's quota or the device is
        // spent, or every reusable slot is pinned). The chunk stays
        // dirty, so the coordinated step retries it on the caller's
        // thread; thrown on from here it would end this thread, and the
        // process. The refusal comes before the dirty flag is cleared;
        // setting it again covers a failure after the clear.
        c.tracker().dirty_local.store(true, std::memory_order_release);
        refused.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      bytes.fetch_add(c.size(), std::memory_order_relaxed);
      passes.fetch_add(1, std::memory_order_relaxed);
      nanos.fetch_add(static_cast<std::uint64_t>(secs * 1e9),
                      std::memory_order_relaxed);
    });
  });
  // Per-worker tallies merge into the registry once, after the join and
  // before the mutex is released: a caller that takes the commit mutex
  // sees every finished batch counted.
  m_.bytes_precopied->add(bytes.load(std::memory_order_relaxed));
  m_.precopy_seconds->add(
      static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9);
  m_.precopy_passes->add(passes.load(std::memory_order_relaxed));
  m_.precopy_refused->add(refused.load(std::memory_order_relaxed));
}

double CheckpointManager::nvchkptall() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("nvchkptall", "ckpt.local");
  const Stopwatch sw;
  const double interval_len = now_seconds() - interval_start_;
  const std::uint64_t epoch = next_epoch();

  std::uint64_t bytes_this_step = 0;
  std::uint64_t bytes_committed_total = 0;
  std::uint64_t committed_precopy = 0, recopied = 0, skipped = 0;
  std::vector<alloc::Chunk*> residual;

  // Classification pass (serial, metadata-only): commit-from-precopy
  // flips and skip decisions are cheap; the residual-dirty copies — the
  // paper's D/BW blocking cost — are collected and sharded below.
  for (alloc::Chunk* c : alloc_->chunks()) {
    if (!c->persistent()) continue;
    if (restoring_.load(std::memory_order_acquire) &&
        restore_deferred(c->id())) {
      // Restore admission rule: this chunk's payload is still in flight,
      // so there is nothing consistent to commit yet; it becomes
      // commit-eligible the moment its own restore completes.
      commits_deferred_.fetch_add(1, std::memory_order_relaxed);
      m_.deferred_restoring->add(1);
      continue;
    }
    const bool dirty =
        c->dirty_local() ||
        (!cfg_.skip_unmodified && c->precopied_epoch() != epoch);
    if (!dirty && c->precopied_epoch() == epoch) {
      // Pre-copied and untouched since: the in-progress slot is exactly
      // the current contents; just flip the commit pointer.
      alloc_->commit_chunk(*c, epoch);
      bytes_committed_total += c->size();
      ++committed_precopy;
    } else if (dirty || !alloc_->acknowledged(*c)) {
      // Residual dirty data: this is the copying the blocking step pays.
      residual.push_back(c);
      bytes_this_step += c->size();
      bytes_committed_total += c->size();
      ++recopied;
    } else {
      // Unmodified since its last commit; its committed payload is still
      // its current value. No copy, no commit (Fig 8's shrinking
      // checkpoint size for GTC's init-only chunks).
      ++skipped;
    }
    prediction_.observe_interval(
        c->id(),
        c->tracker().mods_in_interval.exchange(0,
                                               std::memory_order_acq_rel));
  }

  // Batched re-arm for the residual copies: one coalesced protect_batch
  // replaces per-chunk mprotects (O(runs) syscalls for an adjacent heap).
  const bool batched = batch_rearm_ && residual.size() > 1;
  if (batched) alloc_->arm_chunks(residual);

  // Sharded commit: each worker copies+commits its own chunks on its own
  // NVMBW_core stream. Workers never share a chunk, every commit touches
  // only that chunk's record, and ckpt_mu_ is held across the join, so
  // each per-chunk commit keeps its crash ordering.
  //
  // A chunk refused a ring slot stays dirty for the next round, and the
  // round still commits every other chunk, so one chunk over its tenant's
  // quota cannot hold back the chunks sharded after it. The epoch
  // advances either way: the chunks committed this round hold it, and a
  // retry numbered the same would leave two slots of one ring with it.
  std::mutex refused_mu;
  std::exception_ptr refused;
  run_sharded(residual, [&](alloc::Chunk& c, BandwidthLimiter* s) {
    try {
      alloc_->checkpoint_chunk(c, epoch, s, batched);
    } catch (const NvmcpError&) {
      c.tracker().dirty_local.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> g(refused_mu);
      if (!refused) refused = std::current_exception();
    }
  });
  next_epoch_.fetch_add(1, std::memory_order_acq_rel);
  if (refused) std::rethrow_exception(refused);
  const double blocking = sw.elapsed();

  refresh_vmem_metrics();
  m_.local_checkpoints->add(1);
  m_.blocking_seconds->add(blocking);
  m_.blocking_hist->observe(blocking);
  m_.bytes_coordinated->add(bytes_this_step);
  m_.committed_from_precopy->add(committed_precopy);
  m_.recopied_dirty->add(recopied);
  m_.skipped_unmodified->add(skipped);
  {
    std::lock_guard<std::mutex> llock(learn_mu_);
    const double a = cfg_.learn_alpha;
    learned_interval_ = learned_interval_ <= 0
                            ? interval_len
                            : a * interval_len + (1 - a) * learned_interval_;
    const double data = static_cast<double>(bytes_committed_total);
    learned_data_ =
        learned_data_ <= 0 ? data : a * data + (1 - a) * learned_data_;
    interval_start_ = now_seconds();
  }
  log_debug("nvchkptall: epoch=%llu blocking=%s coordinated=%s "
            "(precopy-committed=%llu recopied=%llu skipped=%llu)",
            static_cast<unsigned long long>(epoch),
            format_seconds(blocking).c_str(),
            format_bytes(static_cast<double>(bytes_this_step)).c_str(),
            static_cast<unsigned long long>(committed_precopy),
            static_cast<unsigned long long>(recopied),
            static_cast<unsigned long long>(skipped));
  return blocking;
}

double CheckpointManager::nvchkptid(std::uint64_t id) {
  alloc::Chunk* c = alloc_->find(id);
  if (!c) throw NvmcpError("nvchkptid: unknown chunk");
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  telemetry::Span span("nvchkptid", "ckpt.local");
  const std::uint64_t epoch = next_epoch();
  const double secs = alloc_->checkpoint_chunk(*c, epoch, stream(0));
  m_.bytes_coordinated->add(c->size());
  return secs;
}

bool CheckpointManager::restore_deferred(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(restore_mu_);
  return restore_pending_.count(id) != 0;
}

void CheckpointManager::open_restore_window(
    const std::vector<alloc::Chunk*>& pending) {
  {
    std::lock_guard<std::mutex> lock(restore_mu_);
    restore_pending_.clear();
    for (const alloc::Chunk* c : pending) restore_pending_.insert(c->id());
  }
  commits_deferred_.store(0, std::memory_order_relaxed);
  restoring_.store(true, std::memory_order_release);
}

void CheckpointManager::admit_restored(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(restore_mu_);
  restore_pending_.erase(id);
}

std::uint64_t CheckpointManager::close_restore_window() {
  // Everything still pending is admitted too, failed restores included:
  // leaving a chunk deferred would silently exclude it from every future
  // checkpoint.
  restoring_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(restore_mu_);
    restore_pending_.clear();
  }
  return commits_deferred_.load(std::memory_order_relaxed);
}

void CheckpointManager::refresh_vmem_metrics() const {
  // Dirty-tracking costs live in the chunk trackers (bumped from the
  // SIGSEGV handler / log append, where only raw atomics are safe); sum
  // them into the registry so snapshots carry the numbers too. The
  // mprotect count is process-global (singleton manager): multi-rank
  // drivers overwrite that gauge after merging rank registries.
  std::uint64_t faults = 0, fault_ns = 0, log_bytes = 0, log_drops = 0;
  for (const alloc::Chunk* c : alloc_->chunks()) {
    const auto& t = c->tracker();
    faults += t.faults.load(std::memory_order_relaxed);
    fault_ns += t.fault_ns.load(std::memory_order_relaxed);
    log_bytes += t.log_bytes.load(std::memory_order_relaxed);
    log_drops += t.log_drops.load(std::memory_order_relaxed);
  }
  m_.protection_faults->set(static_cast<double>(faults));
  m_.vmem_faults->set(static_cast<double>(faults));
  m_.vmem_fault_seconds->set(static_cast<double>(fault_ns) * 1e-9);
  m_.vmem_mprotect_calls->set(static_cast<double>(
      vmem::ProtectionManager::instance().total_mprotect_calls()));
  m_.vmem_log_bytes->set(static_cast<double>(log_bytes));
  m_.vmem_log_drops->set(static_cast<double>(log_drops));
}

CheckpointStats CheckpointManager::stats() const {
  refresh_vmem_metrics();
  CheckpointStats s;
  s.local_checkpoints = m_.local_checkpoints->value();
  s.local_blocking_seconds = m_.blocking_seconds->value();
  s.bytes_coordinated = m_.bytes_coordinated->value();
  s.bytes_precopied = m_.bytes_precopied->value();
  s.precopy_seconds = m_.precopy_seconds->value();
  s.precopy_passes = m_.precopy_passes->value();
  s.chunks_committed_from_precopy = m_.committed_from_precopy->value();
  s.chunks_recopied_dirty = m_.recopied_dirty->value();
  s.chunks_skipped_unmodified = m_.skipped_unmodified->value();
  s.protection_faults =
      static_cast<std::uint64_t>(m_.vmem_faults->value());
  s.fault_seconds = m_.vmem_fault_seconds->value();
  s.mprotect_calls =
      static_cast<std::uint64_t>(m_.vmem_mprotect_calls->value());
  s.log_bytes = static_cast<std::uint64_t>(m_.vmem_log_bytes->value());
  s.log_drops = static_cast<std::uint64_t>(m_.vmem_log_drops->value());
  return s;
}

}  // namespace nvmcp::core
