#include "epoch/version_ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "epoch/directory.hpp"

namespace nvmcp::epoch {

using vmem::ChunkRecord;

VersionRing::Acquired VersionRing::acquire_for_commit() {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return acquire_locked();
}

VersionRing::Acquired VersionRing::acquire_locked() {
  // Slot budget: depth committed versions + one in-flight copy. A pinned
  // victim can push us past the budget (up to kMaxRingSlots).
  const std::uint32_t budget = slot_budget();
  const std::uint64_t bytes = rec_->size;

  Acquired out;
  // 1) An existing in-progress slot (a pre-copy being redone before its
  //    commit) is always reused, preserving its pending-list state. A
  //    frame staged in it is cleared, and the record persisted, before a
  //    byte of the new copy moves.
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->state[i] == ChunkRecord::kSlotInProgress) {
      if (staged_locked(i)) {
        unpublish_locked(i, ChunkRecord::kSlotInProgress);
        persist_locked();
      }
      out.index = i;
      out.off = rec_->slot_off[i];
      out.fresh = false;  // caller's pending lists already track this slot
      out.had_committed = false;
      return out;
    }
  }
  // 2) Shed back to the budget. Slots past it (an all-pinned spill, or a
  //    ring reopened from a deeper image) are freed once unpinned and not
  //    acknowledged, and while more than `budget` regions remain the
  //    oldest reusable ones go too, all but one for this commit to copy
  //    into. Cycling through them instead would keep the footprint, its
  //    quota charge and the extra epochs for good, and a slot past the
  //    budget has no pending range list.
  std::uint32_t held = 0;
  std::uint32_t reusable = 0;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->slot_off[i] == 0) continue;
    const bool published = published_locked(i);
    const bool unheld = i != rec_->committed &&
                        (!published || !pinned_locked(rec_->epoch[i]));
    if (i >= budget && unheld) {
      reclaim_slot_locked(i);
      continue;
    }
    ++held;
    if (unheld && published) ++reusable;
  }
  for (; held > budget && reusable > 1; --held, --reusable) {
    reclaim_slot_locked(oldest_reusable_locked());
  }

  // A free slot's payload region is allocated lazily, the one place a
  // ring grows its device footprint, so it is where the tenant quota is
  // enforced: a refused charge falls through to victim reuse below --
  // quota pressure resolves by recycling this tenant's own oldest epoch
  // (self-eviction), never by growing past the quota.
  bool refused = false;
  auto take = [&](std::uint32_t i) {
    std::uint64_t& off = rec_->slot_off[i];
    if (off == 0) {
      if (refused || (quota_ && !quota_->try_charge(bytes))) {
        refused = true;
        return false;
      }
      try {
        off = dir_->container_->alloc_region(bytes);
      } catch (...) {
        if (quota_) quota_->credit(bytes);  // device full: undo the charge
        throw;
      }
    }
    unpublish_locked(i, ChunkRecord::kSlotInProgress);
    persist_locked();
    out.index = i;
    out.off = off;
    out.fresh = true;  // contents are garbage (new region or torn copy)
    return true;
  };
  // 3) A free slot within budget, while the budget has room for a region.
  for (std::uint32_t i = 0; i < budget; ++i) {
    if (rec_->state[i] != ChunkRecord::kSlotFree ||
        (rec_->slot_off[i] == 0 && held >= budget)) {
      continue;
    }
    if (take(i)) return out;
  }
  // 4) Reuse the oldest unpinned committed slot but the acknowledged one.
  const std::uint32_t victim = oldest_reusable_locked();
  if (victim != kInvalidSlot) {
    out.index = victim;
    out.off = rec_->slot_off[victim];
    out.fresh = false;
    out.had_committed = true;
    out.prev_checksum = rec_->checksum[victim];
    unpublish_locked(victim, ChunkRecord::kSlotInProgress);
    persist_locked();
    return out;
  }
  // 5) Every reusable slot is pinned: spill into any free slot, past the
  //    budget if need be, rather than stall the commit (the next acquire
  //    after the pins are gone sheds it).
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->state[i] == ChunkRecord::kSlotFree && take(i)) return out;
  }
  if (quota_ && quota_->limit() != 0) {
    throw NvmcpError("VersionRing: no acquirable slot (pins + quota '" +
                     quota_->name() + "' exhausted)");
  }
  throw NvmcpError("VersionRing: no acquirable slot (all pinned)");
}

void VersionRing::publish(std::uint32_t index, std::uint64_t epoch,
                          std::uint64_t checksum) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  rec_->epoch[index] = epoch;
  rec_->checksum[index] = checksum;
  rec_->len[index] = rec_->size;
  publish_locked(index);
}

void VersionRing::stage(std::uint32_t index, std::uint64_t epoch,
                        std::uint64_t checksum, std::uint64_t len) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  rec_->epoch[index] = epoch;
  rec_->checksum[index] = checksum;
  rec_->len[index] = len;
  persist_locked();
}

bool VersionRing::publish_staged(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (staged_locked(i) && rec_->epoch[i] == epoch) {
      publish_locked(i);
      break;
    }
  }
  return rec_->has_committed() && rec_->epoch[rec_->committed] == epoch;
}

std::uint64_t VersionRing::held_epoch() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::uint64_t held = 0;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (i == rec_->committed || staged_locked(i)) {
      held = std::max(held, rec_->epoch[i]);
    }
  }
  return held;
}

void VersionRing::publish_locked(std::uint32_t index) {
  rec_->state[index] = ChunkRecord::kSlotPublished;
  persist_locked();
  rec_->committed = index;  // the commit point
  dir_->container_->metadata().persist(&rec_->committed,
                                       sizeof(rec_->committed));
  if (free_unacknowledged_locked(/*in_progress=*/false)) persist_locked();
}

std::optional<RingSlot> VersionRing::acknowledged() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  if (!rec_->has_committed()) return std::nullopt;
  return slot_locked(rec_->committed);
}

std::vector<std::uint64_t> VersionRing::retained_epochs() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::vector<std::uint64_t> out;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (published_locked(i)) out.push_back(rec_->epoch[i]);
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::size_t VersionRing::allocated_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return static_cast<std::size_t>(
      std::count_if(std::begin(rec_->slot_off), std::end(rec_->slot_off),
                    [](std::uint64_t off) { return off != 0; }));
}

std::vector<RingSlot> VersionRing::snapshot_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::vector<RingSlot> out;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    out.push_back(slot_locked(i));
  }
  return out;
}

std::uint64_t VersionRing::newest_epoch() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return rec_->has_committed() ? rec_->epoch[rec_->committed] : 0;
}

bool VersionRing::find_epoch(std::uint64_t epoch, RingSlot* out) const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (published_locked(i) && rec_->epoch[i] == epoch) {
      if (out) *out = slot_locked(i);
      return true;
    }
  }
  return false;
}

void VersionRing::pin_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  pins_.push_back(epoch);
}

void VersionRing::unpin_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  auto it = std::find(pins_.begin(), pins_.end(), epoch);
  if (it != pins_.end()) pins_.erase(it);
}

std::uint32_t VersionRing::slot_budget() const {
  return std::min(dir_->ring_depth() + 1, kMaxRingSlots);
}

std::uint32_t VersionRing::oldest_reusable_locked() const {
  std::uint32_t oldest = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (!published_locked(i) || i == rec_->committed ||
        pinned_locked(rec_->epoch[i])) {
      continue;
    }
    if (oldest == kInvalidSlot || rec_->epoch[i] < rec_->epoch[oldest]) {
      oldest = i;
    }
  }
  return oldest;
}

std::uint32_t VersionRing::oldest_reclaimable_locked(
    std::uint32_t floor) const {
  std::uint32_t committed = 0;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    committed += published_locked(i) ? 1 : 0;
  }
  if (committed <= floor) return kInvalidSlot;
  return oldest_reusable_locked();
}

void VersionRing::unpublish_locked(std::uint32_t i, std::uint32_t state) {
  rec_->state[i] = state;
  rec_->epoch[i] = 0;
  rec_->checksum[i] = 0;
  rec_->len[i] = 0;
}

bool VersionRing::free_unacknowledged_locked(bool in_progress) {
  const std::uint64_t acked =
      rec_->has_committed() ? rec_->epoch[rec_->committed] : 0;
  bool changed = false;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (i == rec_->committed) continue;
    const bool stale = published_locked(i) && rec_->epoch[i] >= acked;
    const bool torn =
        in_progress && rec_->state[i] == ChunkRecord::kSlotInProgress;
    if (stale || torn) {
      unpublish_locked(i, ChunkRecord::kSlotFree);
      changed = true;
    }
  }
  return changed;
}

std::uint64_t VersionRing::reclaim_slot_locked(std::uint32_t index) {
  const std::uint64_t bytes = rec_->size;
  if (rec_->slot_off[index] != 0) {
    dir_->container_->free_region(rec_->slot_off[index], bytes);
    if (quota_) quota_->credit(bytes);
  }
  rec_->slot_off[index] = 0;
  unpublish_locked(index, ChunkRecord::kSlotFree);
  persist_locked();
  return bytes;
}

void VersionRing::resize_locked(std::uint64_t payload_bytes) {
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->slot_off[i] != 0) {
      dir_->container_->free_region(rec_->slot_off[i], rec_->size);
      if (quota_) quota_->credit(rec_->size);
    }
    rec_->slot_off[i] = 0;
    unpublish_locked(i, ChunkRecord::kSlotFree);
  }
  rec_->committed = kInvalidSlot;
  rec_->size = payload_bytes;
  persist_locked();
}

void VersionRing::set_quota(vmem::CapacityQuota* quota) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  set_quota_locked(quota);
}

void VersionRing::set_quota_locked(vmem::CapacityQuota* quota) {
  if (quota_ == quota) return;  // reattach: footprint already charged
  std::size_t held = 0;
  for (const std::uint64_t off : rec_->slot_off) {
    if (off != 0) held += rec_->size;
  }
  if (quota_ && held) quota_->credit(held);
  if (quota && held) quota->charge(held);
  quota_ = quota;
}

bool VersionRing::pinned_locked(std::uint64_t epoch) const {
  return std::find(pins_.begin(), pins_.end(), epoch) != pins_.end();
}

void VersionRing::persist_locked() {
  dir_->container_->metadata().persist_record(*rec_);
}

}  // namespace nvmcp::epoch
