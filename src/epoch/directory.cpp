#include "epoch/directory.hpp"

#include <algorithm>
#include <cstring>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace nvmcp::epoch {
namespace {

constexpr std::uint64_t kEpochMagic = 0x6e766d65706f6368ULL;  // "nvmepoch"

struct EpochRegionHeader {
  std::uint64_t magic = 0;
  std::uint64_t capacity = 0;  // ring records
};

std::size_t bytes_required(std::size_t capacity) {
  return round_up(sizeof(EpochRegionHeader) + capacity * sizeof(RingRecord),
                  kNvmPageSize);
}

}  // namespace

std::uint32_t resolve_ring_depth(int configured) {
  std::int64_t v = configured;
  if (v <= 0) v = env::get_i64("NVMCP_EPOCH_RING_DEPTH", 1, 1, kMaxRingDepth);
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(v, 1, kMaxRingDepth));
}

double resolve_gc_watermark(double configured) {
  if (configured >= 0) return std::clamp(configured, 0.05, 1.0);
  return env::get_double("NVMCP_EPOCH_GC_WATERMARK", 0.85, 0.05, 1.0);
}

std::uint32_t resolve_gc_floor(int configured) {
  std::int64_t v = configured;
  if (v <= 0) v = env::get_i64("NVMCP_EPOCH_GC_FLOOR", 2, 1, kMaxRingDepth);
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(v, 1, kMaxRingDepth));
}

EpochDirectory::EpochDirectory(vmem::Container& container, Options opts)
    : container_(&container), opts_(opts) {
  opts_.ring_depth = std::clamp<std::uint32_t>(opts_.ring_depth, 1,
                                               kMaxRingDepth);
  auto& meta = container.metadata();
  auto& dev = container.device();
  capacity_ = meta.capacity();
  if (meta.header().epoch_region_off != 0) {
    region_off_ = meta.header().epoch_region_off;
    const auto* hdr = reinterpret_cast<const EpochRegionHeader*>(
        dev.data() + region_off_);
    if (hdr->magic != kEpochMagic) {
      throw NvmcpError("EpochDirectory: bad magic at epoch region");
    }
    capacity_ = hdr->capacity;
    // Crash recovery: a slot left kInProgress holds a torn copy; reset it
    // to kFree (keeping its region for reuse) and refresh depths.
    RingRecord* recs = records();
    for (std::size_t i = 0; i < capacity_; ++i) {
      RingRecord& r = recs[i];
      if (!r.valid()) continue;
      bool dirty = r.depth != opts_.ring_depth;
      r.depth = opts_.ring_depth;
      for (RingSlot& s : r.slots) {
        if (s.state == RingSlot::kInProgress) {
          s.state = RingSlot::kFree;
          s.epoch = 0;
          s.checksum = 0;
          dirty = true;
        }
      }
      if (dirty) persist_record(r);
      rings_.emplace(r.chunk_id, std::unique_ptr<VersionRing>(
                                     new VersionRing(this, &r)));
    }
    log_info("EpochDirectory: attached, depth=%u, %zu rings",
             opts_.ring_depth, rings_.size());
  } else {
    if (meta.record_count() != 0) {
      // Chunk records without an epoch region: an image from before every
      // depth kept its versions in a ring. Refused, not migrated.
      throw NvmcpError(
          "EpochDirectory: container holds chunk records but no epoch "
          "region (a pre-ring two-slot image); it cannot be reopened");
    }
    const std::size_t bytes = bytes_required(capacity_);
    region_off_ = container.alloc_region(bytes);
    std::memset(dev.data() + region_off_, 0, bytes);
    auto* hdr =
        reinterpret_cast<EpochRegionHeader*>(dev.data() + region_off_);
    hdr->magic = kEpochMagic;
    hdr->capacity = capacity_;
    dev.mark_written_inplace(region_off_, bytes);
    dev.flush(region_off_, bytes);
    meta.header().epoch_region_off = region_off_;
    meta.persist_header();
    log_info("EpochDirectory: created at off=%zu, depth=%u (capacity %zu)",
             region_off_, opts_.ring_depth, capacity_);
  }
}

RingRecord* EpochDirectory::records() {
  return reinterpret_cast<RingRecord*>(container_->device().data() +
                                       region_off_ +
                                       sizeof(EpochRegionHeader));
}

RingRecord* EpochDirectory::find_record_locked(std::uint64_t chunk_id) {
  RingRecord* recs = records();
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (recs[i].valid() && recs[i].chunk_id == chunk_id) return &recs[i];
  }
  return nullptr;
}

RingRecord* EpochDirectory::insert_record_locked(std::uint64_t chunk_id,
                                                 std::uint64_t payload_bytes) {
  RingRecord* recs = records();
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (recs[i].valid()) continue;
    RingRecord fresh{};
    fresh.chunk_id = chunk_id;
    fresh.payload_bytes = payload_bytes;
    fresh.flags = RingRecord::kValid;
    fresh.depth = opts_.ring_depth;
    recs[i] = fresh;
    persist_record(recs[i]);
    return &recs[i];
  }
  throw NvmcpError("EpochDirectory: ring table full");
}

VersionRing* EpochDirectory::ensure_ring(std::uint64_t chunk_id,
                                         std::uint64_t payload_bytes,
                                         vmem::CapacityQuota* quota) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(chunk_id);
  if (it != rings_.end()) {
    if (it->second->rec_->payload_bytes == payload_bytes) {
      it->second->set_quota_locked(quota);
      return it->second.get();
    }
    drop_ring_locked(chunk_id);
  }
  RingRecord* rec = find_record_locked(chunk_id);
  if (rec && rec->payload_bytes != payload_bytes) {
    // Record exists but no runtime ring (shouldn't happen -- attach
    // materializes every valid record); treat as a size change.
    rings_.emplace(chunk_id, std::unique_ptr<VersionRing>(
                                 new VersionRing(this, rec)));
    drop_ring_locked(chunk_id);
    rec = nullptr;
  }
  if (!rec) rec = insert_record_locked(chunk_id, payload_bytes);
  auto ring = std::unique_ptr<VersionRing>(new VersionRing(this, rec));
  VersionRing* out = ring.get();
  out->set_quota_locked(quota);
  rings_[chunk_id] = std::move(ring);
  return out;
}

VersionRing* EpochDirectory::ring(std::uint64_t chunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(chunk_id);
  return it == rings_.end() ? nullptr : it->second.get();
}

void EpochDirectory::drop_ring(std::uint64_t chunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_ring_locked(chunk_id);
}

void EpochDirectory::drop_ring_locked(std::uint64_t chunk_id) {
  auto it = rings_.find(chunk_id);
  if (it == rings_.end()) return;
  RingRecord* rec = it->second->rec_;
  vmem::CapacityQuota* quota = it->second->quota_;
  for (RingSlot& s : rec->slots) {
    if (s.off != 0) {
      container_->free_region(s.off, rec->payload_bytes);
      if (quota) quota->credit(rec->payload_bytes);
    }
    s = RingSlot{};
  }
  rec->flags = 0;
  persist_record(*rec);
  rings_.erase(it);
}

double EpochDirectory::occupancy() const {
  return container_->device().occupancy();
}

GcPassStats EpochDirectory::gc_pass(double watermark, std::uint32_t floor) {
  GcPassStats stats;
  stats.occupancy_before = occupancy();
  stats.occupancy_after = stats.occupancy_before;
  if (stats.occupancy_before <= watermark) return stats;
  stats.saturated = true;

  std::lock_guard<std::mutex> lock(mu_);
  // Reclaim the globally-oldest eligible slot, repeatedly, until the
  // device drops below the watermark or nothing is reclaimable.
  while (occupancy() > watermark) {
    VersionRing* victim_ring = nullptr;
    std::uint32_t victim_slot = kInvalidSlot;
    std::uint64_t victim_epoch = 0;
    for (auto& [id, ring] : rings_) {
      const std::uint32_t idx = ring->oldest_reclaimable_locked(floor);
      if (idx == kInvalidSlot) continue;
      const std::uint64_t e = ring->rec_->slots[idx].epoch;
      if (!victim_ring || e < victim_epoch) {
        victim_ring = ring.get();
        victim_slot = idx;
        victim_epoch = e;
      }
    }
    if (!victim_ring) break;
    stats.bytes_reclaimed += victim_ring->reclaim_slot_locked(victim_slot);
    ++stats.slots_reclaimed;
  }
  stats.occupancy_after = occupancy();
  return stats;
}

GcPassStats EpochDirectory::gc_pass_quota(const vmem::CapacityQuota* quota,
                                          double watermark,
                                          std::uint32_t floor) {
  GcPassStats stats;
  if (!quota) return stats;
  stats.occupancy_before = quota->occupancy();
  stats.occupancy_after = stats.occupancy_before;
  if (stats.occupancy_before <= watermark) return stats;
  stats.saturated = true;

  std::lock_guard<std::mutex> lock(mu_);
  // Same oldest-first shape as gc_pass, restricted to this tenant's own
  // rings and driven by its quota occupancy instead of the device's.
  while (quota->occupancy() > watermark) {
    VersionRing* victim_ring = nullptr;
    std::uint32_t victim_slot = kInvalidSlot;
    std::uint64_t victim_epoch = 0;
    for (auto& [id, ring] : rings_) {
      if (ring->quota_ != quota) continue;
      const std::uint32_t idx = ring->oldest_reclaimable_locked(floor);
      if (idx == kInvalidSlot) continue;
      const std::uint64_t e = ring->rec_->slots[idx].epoch;
      if (!victim_ring || e < victim_epoch) {
        victim_ring = ring.get();
        victim_slot = idx;
        victim_epoch = e;
      }
    }
    if (!victim_ring) break;
    stats.bytes_reclaimed += victim_ring->reclaim_slot_locked(victim_slot);
    ++stats.slots_reclaimed;
  }
  stats.occupancy_after = quota->occupancy();
  return stats;
}

std::uint64_t EpochDirectory::retained_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [id, ring] : rings_) {
    for (const RingSlot& s : ring->rec_->slots) n += s.committed() ? 1 : 0;
  }
  return n;
}

std::uint64_t EpochDirectory::newest_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t newest = 0;
  for (const auto& [id, ring] : rings_) {
    for (const RingSlot& s : ring->rec_->slots) {
      if (s.committed()) newest = std::max(newest, s.epoch);
    }
  }
  return newest;
}

void EpochDirectory::persist_record(const RingRecord& rec) {
  auto& dev = container_->device();
  const std::size_t off = static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(&rec) - dev.data());
  dev.mark_written_inplace(off, sizeof(RingRecord));
  dev.flush(off, sizeof(RingRecord));
}

}  // namespace nvmcp::epoch
