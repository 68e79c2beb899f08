// Global epoch directory: the on-NVM table of per-chunk version rings.
//
// One region per container (offset persisted in MetadataHeader::
// epoch_region_off) holding a RingRecord per chunk-table entry, so any
// retained epoch of any chunk is addressable after restart: epoch ->
// per-chunk ring slot + CRC. Also owns the single mutex serializing ring
// metadata mutations (commit-side acquire/publish vs. GC reclamation vs.
// restore pinning) and the saturation-driven reclamation pass the
// background GC thread runs (cpf's `is_saturated` shape: reclaim
// oldest-first once device occupancy crosses the watermark, never below
// the retention floor).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "epoch/version_ring.hpp"
#include "vmem/container.hpp"

namespace nvmcp::epoch {

/// NVMCP_EPOCH_RING_DEPTH: committed epochs retained per chunk.
/// `configured` > 0 wins; otherwise the env knob, default 1 (= the
/// two-slot scheme), clamped to [1, kMaxRingDepth].
std::uint32_t resolve_ring_depth(int configured);

/// NVMCP_EPOCH_GC_WATERMARK: device occupancy above which the GC reclaims.
/// `configured` >= 0 wins; default 0.85, clamped to [0.05, 1.0].
double resolve_gc_watermark(double configured);

/// NVMCP_EPOCH_GC_FLOOR: committed epochs per chunk the GC must retain.
/// `configured` > 0 wins; default 2, clamped to [1, kMaxRingDepth].
std::uint32_t resolve_gc_floor(int configured);

struct GcPassStats {
  bool saturated = false;
  std::uint64_t slots_reclaimed = 0;
  std::uint64_t bytes_reclaimed = 0;
  double occupancy_before = 0;
  double occupancy_after = 0;
};

class EpochDirectory {
 public:
  struct Options {
    std::uint32_t ring_depth = 1;
  };

  /// Opens the container's epoch region, creating it (and persisting its
  /// offset in the metadata header) on first use. Records left kInProgress
  /// by a crash are reset to kFree; persisted depths are updated to the
  /// configured depth. Throws NvmcpError, writing nothing, when a region
  /// would have to be created over existing two-slot chunk records: those
  /// are never migrated into rings.
  EpochDirectory(vmem::Container& container, Options opts);

  EpochDirectory(const EpochDirectory&) = delete;
  EpochDirectory& operator=(const EpochDirectory&) = delete;

  std::uint32_t ring_depth() const { return opts_.ring_depth; }
  vmem::Container& container() { return *container_; }

  /// Ring for `chunk_id`, creating its record (payload regions allocate
  /// lazily at first commit). An existing ring with a different payload
  /// size is dropped and re-created. With `quota` the ring's device
  /// footprint is charged to that tenant quota (see
  /// VersionRing::set_quota); a directory shared by several tenants holds
  /// rings charged to different quotas side by side.
  VersionRing* ensure_ring(std::uint64_t chunk_id,
                           std::uint64_t payload_bytes,
                           vmem::CapacityQuota* quota = nullptr);

  /// Ring for `chunk_id`, or nullptr.
  VersionRing* ring(std::uint64_t chunk_id);

  /// Free every payload region of the chunk's ring and invalidate its
  /// record (nvdelete / size-change).
  void drop_ring(std::uint64_t chunk_id);

  /// Device occupancy (reserved bytes / capacity) -- the saturation signal.
  double occupancy() const;

  /// One reclamation pass: while occupancy exceeds `watermark`, reclaim
  /// the globally-oldest unpinned committed slot whose ring retains more
  /// than `floor` epochs (the newest epoch is never reclaimed).
  GcPassStats gc_pass(double watermark, std::uint32_t floor);

  /// Per-tenant reclamation pass: like gc_pass, but the saturation signal
  /// is the tenant quota's occupancy and only rings charged to `quota`
  /// are eligible victims — quota pressure from one tenant's deep ring
  /// can never evict another tenant's epochs.
  GcPassStats gc_pass_quota(const vmem::CapacityQuota* quota,
                            double watermark, std::uint32_t floor);

  /// Committed ring slots across all chunks (telemetry).
  std::uint64_t retained_slots() const;

  /// In-place slot corruption caught by the commit path's pre-fold
  /// checksum verification (the PR-6 laundering gap, now detected).
  void note_slot_corruption() {
    slot_corruptions_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t slot_corruptions() const {
    return slot_corruptions_.load(std::memory_order_relaxed);
  }

 private:
  friend class VersionRing;

  RingRecord* records();
  RingRecord* find_record_locked(std::uint64_t chunk_id);
  RingRecord* insert_record_locked(std::uint64_t chunk_id,
                                   std::uint64_t payload_bytes);
  void drop_ring_locked(std::uint64_t chunk_id);
  void persist_record(const RingRecord& rec);

  vmem::Container* container_;
  Options opts_;
  std::size_t region_off_ = 0;
  std::size_t capacity_ = 0;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<VersionRing>> rings_;
  std::atomic<std::uint64_t> slot_corruptions_{0};
};

}  // namespace nvmcp::epoch
