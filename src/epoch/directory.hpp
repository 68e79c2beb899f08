// Global epoch directory: the runtime over a container's chunk records.
//
// Every chunk record in the metadata table holds that chunk's version
// ring (vmem::ChunkRecord), so any retained epoch of any chunk is
// addressable after restart: epoch -> per-chunk ring slot + CRC. The
// directory gives each record a VersionRing, and owns the single mutex
// serializing ring metadata mutations (commit-side acquire/publish vs. GC
// reclamation vs. restore pinning) and the saturation-driven reclamation
// pass the background GC thread runs (cpf's `is_saturated` shape: reclaim
// oldest-first once device occupancy crosses the watermark, never below
// the retention floor).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "epoch/version_ring.hpp"
#include "vmem/container.hpp"

namespace nvmcp::epoch {

/// Committed epochs retained per chunk, clamped to [1, kMaxRingDepth]: a
/// chunk record holds at most kMaxRingDepth + 1 slots. Depth 1 is a
/// two-slot ring, the paper's committed + in-progress pair.
std::uint32_t resolve_ring_depth(int configured);

/// Device occupancy above which the GC reclaims, clamped to [0.05, 1.0].
double resolve_gc_watermark(double configured);

/// Committed epochs per chunk the GC must retain, clamped to
/// [1, kMaxRingDepth].
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

  /// Gives every chunk record of the container a ring. Crash recovery:
  /// a slot left kInProgress holds a torn copy, and a committed slot other
  /// than the acknowledged one whose epoch is not older was published but
  /// never acknowledged; both are freed, keeping their regions for reuse.
  EpochDirectory(vmem::Container& container, Options opts);

  EpochDirectory(const EpochDirectory&) = delete;
  EpochDirectory& operator=(const EpochDirectory&) = delete;

  std::uint32_t ring_depth() const { return opts_.ring_depth; }
  vmem::Container& container() { return *container_; }

  /// Ring for `chunk_id`, creating its record named `name` (payload
  /// regions allocate lazily at first commit). An existing ring with a
  /// different payload size frees every slot and takes the new size. With
  /// `quota` the ring's device footprint is charged to that tenant quota
  /// (see VersionRing::set_quota); a directory shared by several tenants
  /// holds rings charged to different quotas side by side.
  VersionRing* ensure_ring(std::uint64_t chunk_id,
                           std::uint64_t payload_bytes,
                           vmem::CapacityQuota* quota = nullptr,
                           std::string_view name = {});

  /// Ring for `chunk_id`, or nullptr.
  VersionRing* ring(std::uint64_t chunk_id) const;

  /// Free every payload region of the chunk's ring and invalidate its
  /// record (nvdelete).
  void drop_ring(std::uint64_t chunk_id);

  /// Device occupancy (reserved bytes / capacity) -- the saturation signal.
  double occupancy() const;

  /// One reclamation pass: while occupancy exceeds `watermark`, reclaim
  /// the globally-oldest unpinned committed slot whose ring retains more
  /// than `floor` epochs (the acknowledged epoch is never reclaimed).
  /// With `quota` the saturation signal is that tenant quota's occupancy
  /// and only rings charged to it are victims, so quota pressure from one
  /// tenant's deep ring can never evict another tenant's epochs.
  GcPassStats gc_pass(double watermark, std::uint32_t floor,
                      const vmem::CapacityQuota* quota = nullptr);

  /// Committed ring slots across all chunks (telemetry).
  std::uint64_t retained_slots() const;

  /// Highest epoch committed in any ring (0 if none): a checkpoint
  /// manager numbers its epochs above it, so a chunk's epochs keep
  /// increasing across reopens.
  std::uint64_t newest_epoch() const;

  /// In-place slot corruption caught by the commit path's pre-fold
  /// checksum verification of a reused slot (the reused-slot scrub).
  void note_slot_corruption() {
    slot_corruptions_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t slot_corruptions() const {
    return slot_corruptions_.load(std::memory_order_relaxed);
  }

 private:
  friend class VersionRing;

  vmem::Container* container_;
  Options opts_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<VersionRing>> rings_;
  std::atomic<std::uint64_t> slot_corruptions_{0};
};

}  // namespace nvmcp::epoch
