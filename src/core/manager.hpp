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
  double nvchkptall();

  /// Checkpoint (copy + commit) one chunk immediately.
  double nvchkptid(std::uint64_t id);

  /// Restore every persistent chunk from its committed local version.
  /// Returns the worst status encountered.
  RestoreStatus restore_all();

  /// Outcome of one streaming restore (see restore_streaming).
  struct StreamingRestoreReport {
    RestoreStatus status = RestoreStatus::kOk;  // worst per-chunk status
    std::uint64_t epoch = 0;  // the requested epoch, or what 0 resolved to
    double seconds = 0;
    int chunks = 0;
    /// Chunks whose target epoch failed verification and were restored
    /// from an older retained epoch instead (ring mode only).
    int chunks_rolled_back = 0;
    /// Commits nvchkptall deferred because their chunk was still waiting
    /// to be restored (the admission rule at work).
    std::uint64_t commits_deferred = 0;
  };

  /// Streaming restart: restore persistent chunks one by one on dedicated
  /// worker threads (copy_threads() of them, size-balanced shards) while
  /// the application keeps computing and committing. nvchkptall admits
  /// commits for chunks already restored and defers the rest, so the
  /// restart stops being a barrier: a chunk becomes commit-eligible the
  /// moment its own payload is back. `epoch` 0 means the newest epoch,
  /// resolved once under the commit mutex while the chunks register: each
  /// chunk restores its newest committed version, which the admission
  /// rule keeps from moving until it is restored. A nonzero epoch
  /// restores that retained epoch (ring mode), pinning every source slot
  /// up front so neither the GC nor a concurrent commit can reclaim it
  /// mid-restore. If a chunk's target fails verification the restore
  /// walks back to the newest older retained epoch that still verifies.
  /// The application must not touch a chunk until it has been restored
  /// (the admission rule covers commits, not application loads).
  StreamingRestoreReport restore_streaming(std::uint64_t epoch = 0);

  /// True while a streaming restore is in flight: its chunks are
  /// registered and nvchkptall defers the ones not yet restored.
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
  /// Epoch of the last completed coordinated checkpoint (0 = none yet).
  std::uint64_t committed_epoch() const {
    return next_epoch() - 1;
  }

  /// Learned estimates (0 until the first checkpoint completes).
  double learned_interval() const;
  double learned_data_size() const;

  /// Held across local commits; the remote helper takes it for its brief
  /// commit pass so remote rounds see a stable cut.
  std::mutex& commit_mutex() { return ckpt_mu_; }

  /// Per-rank NVM write stream limiter (NVMBW_core). Shared between the
  /// pre-copy engine and the coordinated step of this rank.
  BandwidthLimiter& stream_limiter() { return stream_; }

  /// Multi-tenant arena mode: route every copy stream of this manager
  /// (the serial path, every sharded worker, and the pre-copy engine)
  /// through one shared trunk limiter owned by the tenant's stream group
  /// instead of the private per-worker NVMBW_core streams. Concurrent
  /// workers acquiring one limiter share it fairly, so the tenant's
  /// aggregate copy rate never exceeds the trunk's grant — and when the
  /// QoS scheduler retunes the trunk mid-round, the rebased backlog makes
  /// the new grant effective immediately. Call before start(); nullptr
  /// restores the private streams.
  void set_shared_stream(BandwidthLimiter* trunk) { shared_stream_ = trunk; }
  BandwidthLimiter* shared_stream() const { return shared_stream_; }

  /// Resolved copier-thread count (config knob or NVMCP_COPY_THREADS).
  /// 1 = the serial legacy data path; >1 = sharded commit/restore/pre-copy
  /// across an internal pool, one NVMBW_core stream per worker.
  std::size_t copy_threads() const { return copy_threads_; }

  /// Background version-ring GC, or nullptr when the allocator runs at
  /// ring depth 1 (no ring, nothing to reclaim). Started/stopped with the
  /// pre-copy engine when config().epoch_gc_background is set; harnesses
  /// can call epoch_gc()->run_pass() for deterministic reclamation.
  epoch::EpochGc* epoch_gc() { return gc_.get(); }

 private:
  void precopy_loop();
  bool threshold_reached() const;
  void end_interval_bookkeeping(double blocking_secs,
                                std::uint64_t bytes_this_ckpt);
  /// Sum per-chunk tracker counters (faults, fault time, log bytes/drops)
  /// plus the process-global mprotect count into the vmem.* gauges.
  void refresh_vmem_metrics() const;

  /// Run `op(chunk, worker_stream)` over `work`, sharded size-balanced
  /// (largest-first) across the copier pool; joins every worker before
  /// returning and rethrows the first worker exception. Requires
  /// copy_threads_ > 1. Caller holds ckpt_mu_.
  void run_sharded(
      const std::vector<alloc::Chunk*>& work,
      const std::function<void(alloc::Chunk&, BandwidthLimiter*)>& op);
  /// Pre-copy one batch (<= copy_threads_ chunks) under ckpt_mu_,
  /// merging byte/pass/seconds tallies into the telemetry counters.
  void precopy_batch(const std::vector<alloc::Chunk*>& batch,
                     std::uint64_t epoch);

  /// stream_ unless a tenant trunk is installed.
  BandwidthLimiter* serial_stream() {
    return shared_stream_ ? shared_stream_ : &stream_;
  }

  alloc::ChunkAllocator* alloc_;
  CheckpointConfig cfg_;
  BandwidthLimiter stream_;
  BandwidthLimiter* shared_stream_ = nullptr;  // non-owning tenant trunk
  PredictionTable prediction_;

  // Parallel data path: resolved worker count, lazily absent pool (only
  // built for copy_threads_ > 1) and one per-worker NVMBW_core stream so
  // concurrent copiers model the paper's per-core bandwidth while the
  // device-global limiter caps the aggregate.
  std::size_t copy_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<BandwidthLimiter>> worker_streams_;

  /// Ring-mode only: the saturation-driven GC over the allocator's epoch
  /// directory.
  std::unique_ptr<epoch::EpochGc> gc_;

  // Streaming-restore admission state: while restoring_ is set,
  // nvchkptall defers (skips) any chunk still in restore_pending_.
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
