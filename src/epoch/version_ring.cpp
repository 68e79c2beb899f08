#include "epoch/version_ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "epoch/directory.hpp"

namespace nvmcp::epoch {

VersionRing::Acquired VersionRing::acquire_for_commit(std::uint64_t keep_off) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return acquire_locked(keep_off);
}

VersionRing::Acquired VersionRing::acquire_locked(std::uint64_t keep_off) {
  // Slot budget: depth committed versions + one in-flight copy. A pinned
  // victim can push us past the budget (up to kMaxRingSlots).
  const std::uint32_t budget = slot_budget();
  const std::uint64_t bytes = rec_->payload_bytes;

  Acquired out;
  // 1) An existing in-progress slot (a pre-copy being redone before its
  //    commit) is always reused, preserving its pending-list state.
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->slots[i].state == RingSlot::kInProgress) {
      out.index = i;
      out.off = rec_->slots[i].off;
      out.fresh = false;  // caller's pending lists already track this slot
      out.had_committed = false;
      return out;
    }
  }
  // The acknowledged version is never reclaimed or reused: the slot at
  // keep_off (the one the chunk record's committed pointer aliases), else
  // the newest epoch. Epochs alone cannot tell it when a commit was
  // repeated at one epoch and two slots hold it.
  const std::uint32_t keep = kept_index_locked(keep_off);
  // 2) Shed back to the budget. Slots past it (an all-pinned spill, or a
  //    ring reopened from a deeper image) are freed once unpinned and not
  //    kept, and while more than `budget` regions remain the oldest
  //    reusable ones go too, all but one for this commit to copy into.
  //    Cycling through them instead would keep the footprint, its quota
  //    charge and the extra epochs for good, and a slot past the budget
  //    has no pending range list.
  std::uint32_t held = 0;
  std::uint32_t reusable = 0;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (s.off == 0) continue;
    const bool unheld =
        i != keep && (!s.committed() || !pinned_locked(s.epoch));
    if (i >= budget && unheld) {
      reclaim_slot_locked(i);
      continue;
    }
    ++held;
    if (unheld && s.committed()) ++reusable;
  }
  for (; held > budget && reusable > 1; --held, --reusable) {
    reclaim_slot_locked(oldest_reusable_locked(keep));
  }

  // A free slot's payload region is allocated lazily, the one place a
  // ring grows its device footprint, so it is where the tenant quota is
  // enforced: a refused charge falls through to victim reuse below --
  // quota pressure resolves by recycling this tenant's own oldest epoch
  // (self-eviction), never by growing past the quota.
  bool refused = false;
  auto take = [&](std::uint32_t i) {
    RingSlot& s = rec_->slots[i];
    if (s.off == 0) {
      if (refused || (quota_ && !quota_->try_charge(bytes))) {
        refused = true;
        return false;
      }
      try {
        s.off = dir_->container_->alloc_region(bytes);
      } catch (...) {
        if (quota_) quota_->credit(bytes);  // device full: undo the charge
        throw;
      }
    }
    s.state = RingSlot::kInProgress;
    s.epoch = 0;
    s.checksum = 0;
    persist_locked();
    out.index = i;
    out.off = s.off;
    out.fresh = true;  // contents are garbage (new region or torn copy)
    return true;
  };
  // 3) A free slot within budget, while the budget has room for a region.
  for (std::uint32_t i = 0; i < budget; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (s.state != RingSlot::kFree || (s.off == 0 && held >= budget)) {
      continue;
    }
    if (take(i)) return out;
  }
  // 4) Reuse the oldest unpinned committed slot that is not kept.
  const std::uint32_t victim = oldest_reusable_locked(keep);
  if (victim != kInvalidSlot) {
    RingSlot& s = rec_->slots[victim];
    out.index = victim;
    out.off = s.off;
    out.fresh = false;
    out.had_committed = true;
    out.prev_checksum = s.checksum;
    s.state = RingSlot::kInProgress;
    persist_locked();
    return out;
  }
  // 5) Every reusable slot is pinned: spill into any free slot, past the
  //    budget if need be, rather than stall the commit (the next acquire
  //    after the pins are gone sheds it).
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    if (rec_->slots[i].state == RingSlot::kFree && take(i)) return out;
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
  RingSlot& s = rec_->slots[index];
  s.epoch = epoch;
  s.checksum = checksum;
  s.state = RingSlot::kCommitted;
  persist_locked();
  last_published_ = index;
}

std::vector<std::uint64_t> VersionRing::retained_epochs() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::vector<std::uint64_t> out;
  for (const RingSlot& s : rec_->slots) {
    if (s.committed()) out.push_back(s.epoch);
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::size_t VersionRing::committed_count() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::size_t n = 0;
  for (const RingSlot& s : rec_->slots) n += s.committed() ? 1 : 0;
  return n;
}

std::size_t VersionRing::allocated_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  std::size_t n = 0;
  for (const RingSlot& s : rec_->slots) n += s.off != 0 ? 1 : 0;
  return n;
}

std::vector<RingSlot> VersionRing::snapshot_slots() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  return std::vector<RingSlot>(rec_->slots, rec_->slots + kMaxRingSlots);
}

std::uint64_t VersionRing::newest_epoch() const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  const std::uint32_t i = newest_index_locked();
  return i == kInvalidSlot ? 0 : rec_->slots[i].epoch;
}

bool VersionRing::find_epoch(std::uint64_t epoch, RingSlot* out) const {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  for (const RingSlot& s : rec_->slots) {
    if (s.committed() && s.epoch == epoch) {
      if (out) *out = s;
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

std::uint64_t VersionRing::payload_bytes() const {
  return rec_->payload_bytes;  // immutable after record creation
}

std::uint32_t VersionRing::depth() const {
  return rec_->depth;  // only mutated at directory attach
}

std::uint32_t VersionRing::newest_index_locked() const {
  std::uint32_t best = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (!s.committed()) continue;
    // Of two slots holding one epoch (a chunk committed twice at it), the
    // one published last is the version the record acknowledged.
    if (best == kInvalidSlot || s.epoch > rec_->slots[best].epoch ||
        (s.epoch == rec_->slots[best].epoch && i == last_published_)) {
      best = i;
    }
  }
  return best;
}

std::uint32_t VersionRing::kept_index_locked(std::uint64_t keep_off) const {
  for (std::uint32_t i = 0; keep_off != 0 && i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (s.committed() && s.off == keep_off) return i;
  }
  return newest_index_locked();
}

std::uint32_t VersionRing::oldest_reusable_locked(std::uint32_t keep) const {
  std::uint32_t oldest = kInvalidSlot;
  for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
    const RingSlot& s = rec_->slots[i];
    if (!s.committed() || i == keep || pinned_locked(s.epoch)) continue;
    if (oldest == kInvalidSlot || s.epoch < rec_->slots[oldest].epoch) {
      oldest = i;
    }
  }
  return oldest;
}

std::uint32_t VersionRing::oldest_reclaimable_locked(
    std::uint32_t floor) const {
  std::size_t committed = 0;
  for (const RingSlot& s : rec_->slots) committed += s.committed() ? 1 : 0;
  if (committed <= floor) return kInvalidSlot;
  return oldest_reusable_locked(newest_index_locked());
}

std::uint64_t VersionRing::reclaim_slot_locked(std::uint32_t index) {
  RingSlot& s = rec_->slots[index];
  const std::uint64_t bytes = rec_->payload_bytes;
  if (s.off != 0) {
    dir_->container_->free_region(s.off, rec_->payload_bytes);
    if (quota_) quota_->credit(rec_->payload_bytes);
  }
  s = RingSlot{};
  persist_locked();
  return bytes;
}

void VersionRing::set_quota(vmem::CapacityQuota* quota) {
  std::lock_guard<std::mutex> lock(dir_->mu_);
  set_quota_locked(quota);
}

void VersionRing::set_quota_locked(vmem::CapacityQuota* quota) {
  if (quota_ == quota) return;  // reattach: footprint already charged
  std::size_t held = 0;
  for (const RingSlot& s : rec_->slots) {
    if (s.off != 0) held += rec_->payload_bytes;
  }
  if (quota_ && held) quota_->credit(held);
  if (quota && held) quota->charge(held);
  quota_ = quota;
}

bool VersionRing::pinned_locked(std::uint64_t epoch) const {
  return std::find(pins_.begin(), pins_.end(), epoch) != pins_.end();
}

void VersionRing::persist_locked() { dir_->persist_record(*rec_); }

}  // namespace nvmcp::epoch
