// Per-chunk version ring: the last N committed checkpoint epochs.
//
// The paper's shadow scheme keeps exactly one committed slot per chunk, so
// recovery is all-or-nothing. A VersionRing generalizes the two-slot
// alternation to depth+1 slots (depth 1 is that alternation, and every
// chunk's versions live in a ring): every commit lands in a free (or the
// oldest reclaimable) slot and is published epoch+CRC, so at least the
// last `depth` committed epochs stay addressable on the device
// (JASS-style multi-version retention, arXiv:2301.11511). Between commits
// all depth+1 slots can briefly hold committed epochs -- the oldest is
// reclaimed lazily at the *next* acquire, not eagerly at publish, because
// reusing a committed slot is what lets incremental (page/range) commits
// fold the slot's clean bytes instead of recopying the whole chunk.
//
// The ring is the runtime over the chunk's vmem::ChunkRecord, which holds
// the slots and `committed`, the index of the acknowledged slot. Crash
// ordering per commit: acquire un-publishes the target slot (kInProgress,
// nothing staged) and persists it *before* any payload byte moves; publish
// writes the slot's epoch, CRC and length only after the payload is
// flushed, persists them, and then stores `committed` and persists it --
// the commit point. The acknowledged slot is never the copy target, and
// publish frees every other slot holding an epoch >= the new one, so every
// retained slot but the acknowledged one is strictly older. Directory
// attach applies the same rule after a crash.
//
// A buddy store commits in two steps, the commit coming from another
// node: a put stages its flushed frame's epoch, CRC and length in the
// in-progress slot, and publish_staged publishes it. Acquiring a slot
// clears what was staged there, so a commit racing a put finds nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "vmem/container.hpp"
#include "vmem/quota.hpp"

namespace nvmcp::epoch {

class EpochDirectory;

using vmem::kInvalidSlot;
using vmem::kMaxRingSlots;
constexpr std::uint32_t kMaxRingDepth = kMaxRingSlots - 1;

/// Copy of one slot of a chunk record.
struct RingSlot {
  static constexpr std::uint32_t kFree = vmem::ChunkRecord::kSlotFree;
  static constexpr std::uint32_t kInProgress =
      vmem::ChunkRecord::kSlotInProgress;
  static constexpr std::uint32_t kCommitted =
      vmem::ChunkRecord::kSlotPublished;

  std::uint64_t off = 0;       // device offset of the payload region, 0=none
  std::uint64_t epoch = 0;     // kCommitted or staged: checkpoint epoch
  std::uint64_t checksum = 0;  // kCommitted or staged: crc64 of len bytes
  std::uint64_t len = 0;       // kCommitted or staged: bytes held
  std::uint32_t state = kFree;

  bool committed() const { return state == kCommitted; }
};

/// Runtime handle over one chunk's record. All public methods lock the
/// owning directory's mutex (ring metadata shares one lock with the GC).
class VersionRing {
 public:
  /// Result of acquire_for_commit().
  struct Acquired {
    std::uint32_t index = kInvalidSlot;
    std::uint64_t off = 0;
    /// Slot holds no prior payload (fresh region, or left kInProgress/
    /// kFree by a crash): the caller must copy the whole chunk.
    bool fresh = true;
    /// Slot is being reused from an older committed epoch: incremental
    /// copies may fold its clean bytes, guarded by prev_checksum.
    bool had_committed = false;
    std::uint64_t prev_checksum = 0;
  };

  /// Pick (and persist as kInProgress, nothing staged) the slot the next
  /// commit will copy into: an existing in-progress slot, else a free slot
  /// (allocating its payload region lazily), else the oldest unpinned
  /// committed slot. The acknowledged slot is never reused or reclaimed.
  /// Slots past the budget, and regions beyond it, are freed first once
  /// unpinned. Throws NvmcpError when no slot can be had: every reusable
  /// one pinned, or the quota (or the device) has no room for another
  /// region.
  Acquired acquire_for_commit();

  /// Acknowledge slot `index` as the committed version of `epoch` (the
  /// whole payload already flushed by the caller): persist its epoch, CRC
  /// and length, then store and persist the record's committed index.
  /// Every other slot holding an epoch >= `epoch` is freed, pinned or not:
  /// a recommit at one epoch supersedes the copy it replaces (a reader
  /// still holding that copy's offset is caught by its CRC check if the
  /// slot is reused under it).
  void publish(std::uint32_t index, std::uint64_t epoch,
               std::uint64_t checksum);

  /// Stage a frame of `len` bytes in in-progress slot `index` (bytes
  /// already flushed): persist its epoch, CRC and length; the slot stays
  /// in progress.
  void stage(std::uint32_t index, std::uint64_t epoch, std::uint64_t checksum,
             std::uint64_t len);

  /// Publish the slot staged with `epoch`, as publish does. Returns
  /// whether the acknowledged epoch is now `epoch`.
  bool publish_staged(std::uint64_t epoch);

  /// Newest epoch the acknowledged slot or a staged slot holds (0 if
  /// none): what a buddy serves or can publish without another put.
  std::uint64_t held_epoch() const;

  /// The acknowledged slot: its offset, epoch, CRC and length, read
  /// together. nullopt before the first commit.
  std::optional<RingSlot> acknowledged() const;

  /// Committed epochs, newest (the acknowledged one) first.
  std::vector<std::uint64_t> retained_epochs() const;
  std::uint64_t newest_epoch() const;  // 0 if none
  /// Slots currently holding a payload region (any state); each costs
  /// payload_bytes of device space until reclaimed.
  std::size_t allocated_slots() const;
  /// Copy of all slots (tests, fault injection, occupancy audits).
  std::vector<RingSlot> snapshot_slots() const;

  /// Committed slot holding `epoch`; copies the slot out (offsets stay
  /// valid until the slot is reclaimed -- pin first). found=false if the
  /// epoch is not retained.
  bool find_epoch(std::uint64_t epoch, RingSlot* out) const;

  /// Pin/unpin an epoch against reclamation and in-progress reuse (restore
  /// sources). Pins nest.
  void pin_epoch(std::uint64_t epoch);
  void unpin_epoch(std::uint64_t epoch);

  /// Slots a commit cycles through: depth committed versions plus the
  /// in-flight copy, capped at kMaxRingSlots.
  std::uint32_t slot_budget() const;

  /// The chunk record this ring runs over. The reference stays valid for
  /// the life of the device; read its fields through the methods above,
  /// which hold the directory mutex commits publish under.
  const vmem::ChunkRecord& record() const { return *rec_; }

  /// Attach a per-tenant capacity quota: every currently-allocated slot
  /// region is charged to it (throws if the existing footprint already
  /// exceeds the limit), lazy slot allocations charge it, and reclaims
  /// credit it. Under quota pressure acquire_for_commit reuses the ring's
  /// own oldest committed slot instead of allocating — quota pressure is
  /// resolved by self-eviction, never by evicting another tenant's
  /// epochs. Re-attaching the same quota is a no-op (reattach path).
  void set_quota(vmem::CapacityQuota* quota);
  vmem::CapacityQuota* quota() const { return quota_; }

 private:
  friend class EpochDirectory;
  VersionRing(EpochDirectory* dir, vmem::ChunkRecord* rec)
      : dir_(dir), rec_(rec) {}

  // _locked variants assume the directory mutex is held.
  bool published_locked(std::uint32_t i) const {
    return rec_->state[i] == vmem::ChunkRecord::kSlotPublished;
  }
  bool staged_locked(std::uint32_t i) const {
    return rec_->state[i] == vmem::ChunkRecord::kSlotInProgress &&
           rec_->len[i] != 0;
  }
  RingSlot slot_locked(std::uint32_t i) const {
    return RingSlot{rec_->slot_off[i], rec_->epoch[i], rec_->checksum[i],
                    rec_->len[i], rec_->state[i]};
  }
  void publish_locked(std::uint32_t index);
  /// Oldest unpinned committed slot but the acknowledged one (kInvalidSlot:
  /// none).
  std::uint32_t oldest_reusable_locked() const;
  std::uint32_t oldest_reclaimable_locked(std::uint32_t floor) const;
  /// Clear slot `i`'s epoch, CRC and length and give it `state`, keeping
  /// its region. The caller persists the record.
  void unpublish_locked(std::uint32_t i, std::uint32_t state);
  /// Free every slot but the acknowledged one that holds an epoch >= the
  /// acknowledged epoch (every committed slot when none is acknowledged),
  /// and with `in_progress` every torn copy too, keeping their regions.
  /// Returns whether a slot changed; the caller persists the record.
  bool free_unacknowledged_locked(bool in_progress);
  /// Free the slot's payload region and mark it kFree; returns bytes freed.
  std::uint64_t reclaim_slot_locked(std::uint32_t index);
  /// Free every slot's region and give the record a new payload size.
  void resize_locked(std::uint64_t payload_bytes);
  bool pinned_locked(std::uint64_t epoch) const;
  void persist_locked();
  Acquired acquire_locked();
  void set_quota_locked(vmem::CapacityQuota* quota);

  EpochDirectory* dir_;
  vmem::ChunkRecord* rec_;
  vmem::CapacityQuota* quota_ = nullptr;  // non-owning; tenant lifetime
  std::vector<std::uint64_t> pins_;  // runtime only; may hold duplicates
};

}  // namespace nvmcp::epoch
