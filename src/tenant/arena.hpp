// Multi-tenant checkpoint arena: one NVM device + container + epoch
// directory serving N tenants, each with its own CheckpointManager-backed
// handle, capacity quota, QoS stream group, and a shared admission
// controller bounding arena-wide in-flight checkpoint rounds.
//
// Isolation model:
//   * capacity  — every ring slot region a tenant's rings acquire is
//     charged to its CapacityQuota when a commit acquires it; over-quota
//     pressure resolves by the tenant recycling ITS OWN oldest committed
//     epoch (self-eviction), never by evicting a neighbour's. A commit
//     that finds no slot to recycle within the quota throws.
//   * bandwidth — every copy stream of a tenant's manager drains one
//     trunk limiter whose rate is the QoS scheduler's grant (priority +
//     weighted fair share, work-conserving).
//   * admission — nvchkptall rounds above the arena budget queue
//     (priority-first) or fail fast, per policy.
//
// The container's chunk table (MetadataRegion) is NOT internally
// synchronized, so every chunk-table mutation (nvalloc / nvrealloc /
// nvdelete, from any tenant) is serialized behind the arena's alloc
// mutex. The hot paths — pre-copy, commit, restore — touch only
// already-inserted records and per-chunk state, so they run concurrently
// across tenants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "core/config.hpp"
#include "core/manager.hpp"
#include "epoch/directory.hpp"
#include "nvm/device.hpp"
#include "telemetry/metrics.hpp"
#include "tenant/admission.hpp"
#include "tenant/scheduler.hpp"
#include "vmem/container.hpp"
#include "vmem/quota.hpp"

namespace nvmcp::tenant {

struct TenantSpec {
  std::string name;
  /// NVM bytes this tenant may hold in ring slot regions. 0 = unmetered.
  std::size_t quota_bytes = 0;
  /// QoS class: higher = bigger bandwidth share and earlier admission.
  /// Convention: 0 = bulk/background, 1 = normal, 2 = latency-sensitive.
  int priority = 1;
  double weight = 1.0;
  vmem::TrackMode track_mode = vmem::TrackMode::kMprotect;
  core::CheckpointConfig ckpt;
};

class TenantArena;

/// One tenant's view of the arena: a namespaced allocator facade plus the
/// admission/QoS-wrapped checkpoint entry point. Created by the arena;
/// valid until the arena dies or the tenant is reattached.
class TenantHandle {
 public:
  const std::string& name() const { return spec_.name; }
  const TenantSpec& spec() const { return spec_; }

  /// Chunk ids are namespaced per tenant ("<tenant>/<var>"), so two
  /// tenants' variables of the same name never collide in the shared
  /// chunk table.
  std::uint64_t chunk_id(std::string_view var) const;

  /// Table III interfaces, arena-serialized (see file header).
  alloc::Chunk* nvalloc(std::string_view var, std::size_t size,
                        bool persistent);
  alloc::Chunk* nvrealloc(std::string_view var, std::size_t new_size);
  void nvdelete(std::string_view var);
  alloc::Chunk* find(std::string_view var);

  struct CommitResult {
    bool admitted = false;
    double blocking = 0;        // nvchkptall t_lcl (0 if not admitted)
    double admission_wait = 0;  // seconds queued before the round started
  };

  /// One QoS-managed coordinated checkpoint round: admission -> scheduler
  /// note_active (grant bump) -> nvchkptall -> note_idle -> per-tenant
  /// quota GC trim. A rejected/timed-out round returns admitted=false and
  /// checkpoints nothing (the tenant retries next interval).
  CommitResult checkpoint();

  core::CheckpointManager& manager() { return *mgr_; }
  alloc::ChunkAllocator& allocator() { return *alloc_; }
  const vmem::CapacityQuota& quota() const { return *quota_; }
  StreamGroup& stream_group() { return *group_; }
  /// Current bandwidth grant, bytes/sec (0 = unlimited).
  double granted_bw() const { return group_->granted(); }

 private:
  friend class TenantArena;
  TenantHandle(TenantArena& arena, TenantSpec spec,
               vmem::CapacityQuota* quota, StreamGroup* group);

  TenantArena* arena_;
  TenantSpec spec_;
  vmem::CapacityQuota* quota_;  // arena-owned; survives reattach
  StreamGroup* group_;          // scheduler-owned; survives reattach
  std::unique_ptr<alloc::ChunkAllocator> alloc_;
  std::unique_ptr<core::CheckpointManager> mgr_;  // after alloc_: dtor order

  // tenant.<name>.* handles in the arena registry.
  telemetry::Counter* m_commits_ = nullptr;
  telemetry::Counter* m_rejected_ = nullptr;
  telemetry::Counter* m_waits_ = nullptr;
  telemetry::Gauge* m_wait_seconds_ = nullptr;
  telemetry::Gauge* m_granted_bw_ = nullptr;
  telemetry::Gauge* m_quota_used_ = nullptr;
  telemetry::Gauge* m_quota_limit_ = nullptr;
  telemetry::Gauge* m_quota_peak_ = nullptr;
  telemetry::Gauge* m_quota_rejections_ = nullptr;
  telemetry::HistogramMetric* m_commit_hist_ = nullptr;
};

class TenantArena {
 public:
  struct Options {
    NvmConfig device;
    /// Committed epochs retained per chunk, clamped to [1, kMaxRingDepth].
    int ring_depth = 1;
    /// Arena-wide in-flight round budget (at least 1).
    int max_inflight = 2;
    /// Over-budget behaviour.
    AdmissionPolicy admission = AdmissionPolicy::kQueue;
    /// kQueue wait bound, seconds.
    double queue_timeout = 5.0;
    /// Scheduler share multiplier per priority level.
    double priority_boost = 4.0;
    /// Cap the QoS scheduler partitions, bytes/sec. <0 = derive from the
    /// device (spec write bandwidth when throttled, else unlimited);
    /// 0 = unlimited.
    double scheduler_bw = -1;
  };

  explicit TenantArena(Options opts);
  ~TenantArena();

  TenantArena(const TenantArena&) = delete;
  TenantArena& operator=(const TenantArena&) = delete;

  /// Create a tenant (allocator + manager started). Name must be unique
  /// among live tenants.
  TenantHandle& create_tenant(TenantSpec spec);

  TenantHandle* find(std::string_view name);

  /// Crash-recovery path: tear the tenant's handle down (manager stopped,
  /// allocator released — the moral equivalent of its process dying) and
  /// rebuild it over the shared container. Its quota meter and stream
  /// group persist, so the rebuilt tenant re-adopts its charged ring
  /// footprint instead of double-charging; persistent chunks restore
  /// through the normal nvalloc restart walk.
  TenantHandle& reattach_tenant(std::string_view name);

  NvmDevice& device() { return dev_; }
  vmem::Container& container() { return container_; }
  /// Shared epoch directory (one per container, every tenant's rings).
  epoch::EpochDirectory* directory() { return dir_.get(); }
  AdmissionController& admission() { return admission_; }
  BandwidthScheduler& scheduler() { return sched_; }
  std::mutex& alloc_mutex() { return alloc_mu_; }
  std::uint32_t ring_depth() const { return ring_depth_; }

  /// Arena registry: tenant.<name>.* plus arena.* metrics.
  telemetry::MetricRegistry& metrics() { return metrics_; }
  /// Refresh the sampled gauges (quota occupancy, grants, in-flight).
  void refresh_metrics();

 private:
  friend class TenantHandle;
  std::unique_ptr<TenantHandle> build_tenant_locked(TenantSpec spec);

  Options opts_;
  NvmDevice dev_;
  vmem::Container container_;
  std::uint32_t ring_depth_;
  std::unique_ptr<epoch::EpochDirectory> dir_;
  AdmissionController admission_;
  BandwidthScheduler sched_;
  telemetry::MetricRegistry metrics_;
  telemetry::Gauge* m_inflight_ = nullptr;

  std::mutex alloc_mu_;  // serializes chunk-table mutations (all tenants)

  mutable std::mutex mu_;  // guards quotas_ + tenants_
  /// Keyed by tenant name; never erased, so quota pointers held by rings
  /// in the shared directory stay valid across tenant reattach.
  std::map<std::string, std::unique_ptr<vmem::CapacityQuota>> quotas_;
  std::vector<std::unique_ptr<TenantHandle>> tenants_;
};

}  // namespace nvmcp::tenant
