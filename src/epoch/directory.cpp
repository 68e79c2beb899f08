#include "epoch/directory.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nvmcp::epoch {

std::uint32_t resolve_ring_depth(int configured) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(configured, 1, kMaxRingDepth));
}

double resolve_gc_watermark(double configured) {
  return std::clamp(configured, 0.05, 1.0);
}

std::uint32_t resolve_gc_floor(int configured) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(configured, 1, kMaxRingDepth));
}

EpochDirectory::EpochDirectory(vmem::Container& container, Options opts)
    : container_(&container), opts_(opts) {
  opts_.ring_depth = std::clamp<std::uint32_t>(opts_.ring_depth, 1,
                                               kMaxRingDepth);
  auto& meta = container.metadata();
  meta.for_each([&](vmem::ChunkRecord& rec) {
    auto ring = std::unique_ptr<VersionRing>(new VersionRing(this, &rec));
    if (ring->free_unacknowledged_locked(/*in_progress=*/true)) {
      meta.persist_record(rec);
    }
    rings_.emplace(rec.id, std::move(ring));
  });
  log_info("EpochDirectory: depth=%u, %zu rings", opts_.ring_depth,
           rings_.size());
}

VersionRing* EpochDirectory::ensure_ring(std::uint64_t chunk_id,
                                         std::uint64_t payload_bytes,
                                         vmem::CapacityQuota* quota,
                                         std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(chunk_id);
  if (it == rings_.end()) {
    vmem::ChunkRecord* rec = container_->metadata().insert(chunk_id, name);
    it = rings_
             .emplace(chunk_id, std::unique_ptr<VersionRing>(
                                    new VersionRing(this, rec)))
             .first;
  }
  VersionRing* ring = it->second.get();
  if (ring->rec_->size != payload_bytes) ring->resize_locked(payload_bytes);
  ring->set_quota_locked(quota);
  return ring;
}

VersionRing* EpochDirectory::ring(std::uint64_t chunk_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(chunk_id);
  return it == rings_.end() ? nullptr : it->second.get();
}

void EpochDirectory::drop_ring(std::uint64_t chunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(chunk_id);
  if (it == rings_.end()) return;
  it->second->resize_locked(0);
  container_->metadata().erase(chunk_id);
  rings_.erase(it);
}

double EpochDirectory::occupancy() const {
  return container_->device().occupancy();
}

GcPassStats EpochDirectory::gc_pass(double watermark, std::uint32_t floor,
                                    const vmem::CapacityQuota* quota) {
  auto saturation = [&] { return quota ? quota->occupancy() : occupancy(); };
  GcPassStats stats;
  stats.occupancy_before = saturation();
  stats.occupancy_after = stats.occupancy_before;
  if (stats.occupancy_before <= watermark) return stats;
  stats.saturated = true;

  std::lock_guard<std::mutex> lock(mu_);
  // Reclaim the globally-oldest eligible slot, repeatedly, until the
  // signal drops below the watermark or nothing is reclaimable.
  while (saturation() > watermark) {
    VersionRing* victim_ring = nullptr;
    std::uint32_t victim_slot = kInvalidSlot;
    std::uint64_t victim_epoch = 0;
    for (auto& [id, ring] : rings_) {
      if (quota && ring->quota_ != quota) continue;
      const std::uint32_t idx = ring->oldest_reclaimable_locked(floor);
      if (idx == kInvalidSlot) continue;
      const std::uint64_t e = ring->rec_->epoch[idx];
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
  stats.occupancy_after = saturation();
  return stats;
}

std::uint64_t EpochDirectory::retained_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [id, ring] : rings_) {
    for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
      n += ring->published_locked(i) ? 1 : 0;
    }
  }
  return n;
}

std::uint64_t EpochDirectory::newest_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t newest = 0;
  for (const auto& [id, ring] : rings_) {
    const vmem::ChunkRecord& rec = *ring->rec_;
    if (rec.has_committed()) {
      newest = std::max(newest, rec.epoch[rec.committed]);
    }
  }
  return newest;
}

}  // namespace nvmcp::epoch
