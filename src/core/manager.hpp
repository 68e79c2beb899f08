// CheckpointManager: the NVM-checkpoint facade for one rank/process.
//
// Owns the background pre-copy engine (CPC / DCPC / DCPCP) and the
// coordinated local checkpoint step (nvchkptall / nvchkptid), on top of the
// chunk allocator's shadow-buffering primitives.
//
// Timeline per paper Fig 5:
//   compute  [precopy overlapped]  nvchkptall (blocking, residual dirty
//   chunks only)  compute ...
//
// The manager learns the checkpoint interval I and data size D after the
// first coordinated checkpoint and continuously adapts the DCPC threshold
// T_p = I - margin * (D / NVMBW_core).
//
// Every copy (commit, pre-copy, restore) takes one path at every worker
// count: chunks shard size-balanced over copy_threads() workers, worker 0
// being the calling thread. Commit and pre-copy run the rest on a pool,
// each on its own NVMBW_core stream (Fig 4's per-core copiers); restore is
// RestartCoordinator's walk (core/restart.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "core/prediction.hpp"
#include "core/stats.hpp"
#include "epoch/gc.hpp"
#include "telemetry/metrics.hpp"

namespace nvmcp::core {

/// Size-balanced shards, largest chunk first (LPT scheduling): sort the
/// work descending by payload size, then greedily place each chunk on the
/// least-loaded of `shards` shards. Deterministic for a given work list.
/// Commit, pre-copy and the restart walk all shard through it.
std::vector<std::vector<alloc::Chunk*>> shard_by_size(
    std::vector<alloc::Chunk*> work, std::size_t shards);

class CheckpointManager {
 public:
  CheckpointManager(alloc::ChunkAllocator& allocator, CheckpointConfig cfg);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Launch the background pre-copy engine (no-op for kNone).
  void start();
  /// Stop the engine (joins the thread). Safe to call twice.
  void stop();

  /// Coordinated local checkpoint of all persistent chunks. The caller is
  /// the application thread, so the application is paused for exactly the
  /// duration of this call — its return value is the paper's t_lcl.
  /// Throws NvmcpError, once the round is over, when a chunk got no ring
  /// slot (quota, device or pins): every other chunk is committed, the
  /// refused ones stay dirty, and the next round numbers a new epoch.
  double nvchkptall();

  /// Checkpoint (copy + commit) one chunk immediately.
  double nvchkptid(std::uint64_t id);

  /// Restore admission window, opened and closed by RestartCoordinator's
  /// walk. While it is open, nvchkptall and the pre-copy engine defer
  /// every chunk still pending (its payload is in flight, so there is
  /// nothing consistent to commit), and count each deferral. Open it under
  /// commit_mutex(), with the chunks about to be restored; admit each as
  /// it lands; close returns the commits deferred since the open and
  /// admits everything still pending.
  void open_restore_window(const std::vector<alloc::Chunk*>& pending);
  void admit_restored(std::uint64_t id);
  std::uint64_t close_restore_window();

  /// True while a restart walk's admission window is open.
  bool restoring() const { return restoring_.load(std::memory_order_acquire); }

  alloc::ChunkAllocator& allocator() { return *alloc_; }
  const CheckpointConfig& config() const { return cfg_; }
  /// Legacy summary view over metrics() (same numbers, struct shape).
  CheckpointStats stats() const;
  /// This manager's metric registry ("ckpt.*" counters/gauges plus the
  /// blocking-time histogram). The source of truth behind stats().
  telemetry::MetricRegistry& metrics() { return metrics_; }
  const telemetry::MetricRegistry& metrics() const { return metrics_; }
  PredictionTable& prediction() { return prediction_; }

  /// Epoch of the next checkpoint to be taken (committed epoch + 1).
  std::uint64_t next_epoch() const {
    return next_epoch_.load(std::memory_order_acquire);
  }
  /// Epoch of the last completed coordinated checkpoint, starting from
  /// the newest epoch on a reopened device (0 = none yet).
  std::uint64_t committed_epoch() const {
    return next_epoch() - 1;
  }
  /// Number the next checkpoint past `epoch` (no-op when it already is).
  /// Call under commit_mutex().
  void number_epochs_past(std::uint64_t epoch) {
    if (next_epoch() <= epoch) next_epoch_.store(epoch + 1);
  }

  /// Learned estimates (0 until the first checkpoint completes).
  double learned_interval() const;
  double learned_data_size() const;

  /// Held across local commits; the remote helper takes it for its brief
  /// commit pass so remote rounds see a stable cut.
  std::mutex& commit_mutex() { return ckpt_mu_; }

  /// Multi-tenant arena mode: route every copy stream of this manager
  /// (every copier worker, for commits, pre-copy and nvchkptid alike)
  /// through one shared trunk limiter owned by the tenant's stream group
  /// instead of the private per-worker NVMBW_core streams. Concurrent
  /// workers acquiring one limiter share it fairly, so the tenant's
  /// aggregate copy rate never exceeds the trunk's grant — and when the
  /// QoS scheduler retunes the trunk mid-round, the rebased backlog makes
  /// the new grant effective immediately. Call before start(); nullptr
  /// restores the private streams.
  void set_shared_stream(BandwidthLimiter* trunk) { shared_stream_ = trunk; }

  /// Copier-thread count (CheckpointConfig::copy_threads, at least 1):
  /// commit, restore and pre-copy shard their chunks over this many
  /// workers. Commit and pre-copy run on the calling thread plus
  /// copy_threads() - 1 pool threads, one NVMBW_core stream per worker;
  /// the restart walk runs its shards on dedicated threads instead.
  std::size_t copy_threads() const { return copy_threads_; }

  /// Background version-ring GC, or nullptr at ring depth 1 (the one
  /// older slot is what the next commit reuses: nothing to reclaim) and
  /// under an arena-owned directory. Started/stopped with the pre-copy
  /// engine when config().epoch_gc_background is set; harnesses can call
  /// epoch_gc()->run_pass() for deterministic reclamation.
  epoch::EpochGc* epoch_gc() { return gc_.get(); }

 private:
  void precopy_loop();
  bool threshold_reached() const;
  /// Sum per-chunk tracker counters (faults, fault time, log bytes/drops)
  /// plus the process-global mprotect count into the vmem.* gauges.
  void refresh_vmem_metrics() const;

  /// Run `op(chunk, worker_stream)` over `work`, sharded size-balanced
  /// (largest-first) into copy_threads_ shards: shard 0 runs on the
  /// calling thread, the others on the pool. Joins every pool task before
  /// returning and rethrows the first exception. Caller holds ckpt_mu_.
  void run_sharded(
      const std::vector<alloc::Chunk*>& work,
      const std::function<void(alloc::Chunk&, BandwidthLimiter*)>& op);
  /// Pre-copy one batch (<= copy_threads_ chunks) for the upcoming epoch
  /// under ckpt_mu_, merging byte/pass/seconds tallies into the telemetry
  /// counters before the mutex is released.
  void precopy_batch(const std::vector<alloc::Chunk*>& batch);

  /// Worker w's NVMBW_core stream, unless a tenant trunk is installed.
  BandwidthLimiter* stream(std::size_t w) const {
    return shared_stream_ ? shared_stream_ : worker_streams_[w].get();
  }

  alloc::ChunkAllocator* alloc_;
  CheckpointConfig cfg_;
  BandwidthLimiter* shared_stream_ = nullptr;  // non-owning tenant trunk
  PredictionTable prediction_;

  // Data path: resolved worker count, the pool behind workers 1.. (absent
  // at one worker) and one NVMBW_core stream per worker so concurrent
  // copiers model the paper's per-core bandwidth while the device-global
  // limiter caps the aggregate.
  std::size_t copy_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<BandwidthLimiter>> worker_streams_;

  /// Ring-mode only: the saturation-driven GC over the allocator's epoch
  /// directory.
  std::unique_ptr<epoch::EpochGc> gc_;

  // Restore admission state: while restoring_ is set, nvchkptall and the
  // pre-copy engine defer (skip) any chunk still in restore_pending_.
  std::atomic<bool> restoring_{false};
  mutable std::mutex restore_mu_;  // guards restore_pending_
  std::unordered_set<std::uint64_t> restore_pending_;
  std::atomic<std::uint64_t> commits_deferred_{0};
  bool restore_deferred(std::uint64_t id) const;

  /// Batched re-arm resolved from config/env (see CheckpointConfig).
  bool batch_rearm_ = true;

  std::atomic<std::uint64_t> next_epoch_{1};

  // Serializes the coordinated step against the pre-copy engine (and the
  // remote helper's commit pass).
  std::mutex ckpt_mu_;

  // Learned interval/data estimates (guarded by learn_mu_).
  mutable std::mutex learn_mu_;
  double learned_interval_ = 0;
  double learned_data_ = 0;
  double interval_start_ = 0;  // now_seconds() at last checkpoint end

  // Engine thread control.
  std::thread engine_;
  std::atomic<bool> running_{false};
  std::condition_variable engine_cv_;
  std::mutex engine_mu_;

  // Metrics: the registry owns every counter; the m_ handles are cached
  // lookups so hot-path updates are single relaxed atomic ops.
  telemetry::MetricRegistry metrics_;
  struct {
    telemetry::Counter* local_checkpoints;
    telemetry::Counter* bytes_coordinated;
    telemetry::Counter* bytes_precopied;
    telemetry::Counter* precopy_passes;
    telemetry::Counter* precopy_refused;  // pre-copies with no ring slot
    telemetry::Counter* committed_from_precopy;
    telemetry::Counter* recopied_dirty;
    telemetry::Counter* skipped_unmodified;
    telemetry::Counter* deferred_restoring;
    telemetry::Gauge* blocking_seconds;
    telemetry::Gauge* precopy_seconds;
    telemetry::Gauge* protection_faults;
    telemetry::Gauge* vmem_faults;
    telemetry::Gauge* vmem_fault_seconds;
    telemetry::Gauge* vmem_mprotect_calls;
    telemetry::Gauge* vmem_log_bytes;
    telemetry::Gauge* vmem_log_drops;
    telemetry::HistogramMetric* blocking_hist;
  } m_{};
};

}  // namespace nvmcp::core
