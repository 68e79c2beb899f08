// Per-chunk on-NVM version ring: the last N committed checkpoint epochs.
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
// fold the slot's clean bytes instead of recopying the whole chunk. The chunk's ChunkRecord remains the
// authority on the *newest* committed version -- its slot_off[committed]
// aliases the ring slot of the newest epoch -- so every consumer that reads
// the record (remote checkpointer, parity, lazy restore) needs no ring.
//
// Crash ordering per commit: acquire marks the target slot kInProgress and
// persists the ring record *before* any payload byte moves, so a crash
// mid-copy leaves a slot that restore never trusts; publish flips it to
// kCommitted with epoch+CRC only after the payload is flushed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vmem/container.hpp"
#include "vmem/quota.hpp"

namespace nvmcp::epoch {

class EpochDirectory;

/// Slots per ring record: max retention depth 8 + one in-progress slot.
constexpr std::uint32_t kMaxRingSlots = 9;
constexpr std::uint32_t kMaxRingDepth = kMaxRingSlots - 1;
constexpr std::uint32_t kInvalidSlot = ~0u;

/// On-NVM ring slot (POD; lives in the epoch region).
struct RingSlot {
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kInProgress = 1;
  static constexpr std::uint32_t kCommitted = 2;

  std::uint64_t off = 0;       // device offset of the payload region, 0=none
  std::uint64_t epoch = 0;     // checkpoint epoch (kCommitted only)
  std::uint64_t checksum = 0;  // crc64 of the payload (kCommitted only)
  std::uint32_t state = kFree;
  std::uint32_t pad = 0;

  bool committed() const { return state == kCommitted; }
};

static_assert(sizeof(RingSlot) == 32, "RingSlot layout is persistent");

/// On-NVM per-chunk ring record (POD; one per chunk in the epoch region).
struct RingRecord {
  static constexpr std::uint32_t kValid = 1u << 0;

  std::uint64_t chunk_id = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t flags = 0;
  std::uint32_t depth = 0;  // retention target (committed epochs to keep)
  RingSlot slots[kMaxRingSlots];

  bool valid() const { return flags & kValid; }
};

static_assert(sizeof(RingRecord) == 24 + sizeof(RingSlot) * kMaxRingSlots,
              "RingRecord layout is persistent");

/// Runtime handle over one chunk's RingRecord. All public methods lock the
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

  /// Pick (and persist as kInProgress) the slot the next commit will copy
  /// into: an existing in-progress slot, else a free slot (allocating its
  /// payload region lazily), else the oldest unpinned committed slot. The
  /// slot at `keep_off` (the chunk record's committed slot; 0: the newest
  /// epoch) is never reused or reclaimed. Slots past the budget, and
  /// regions beyond it, are freed first once unpinned. Throws NvmcpError
  /// when no slot can be had: every reusable one pinned, or the quota (or
  /// the device) has no room for another region.
  Acquired acquire_for_commit(std::uint64_t keep_off = 0);

  /// Publish slot `index` as the committed version of `epoch` (payload
  /// already flushed by the caller).
  void publish(std::uint32_t index, std::uint64_t epoch,
               std::uint64_t checksum);

  /// Committed epochs, newest first.
  std::vector<std::uint64_t> retained_epochs() const;
  std::size_t committed_count() const;
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

  std::uint64_t payload_bytes() const;
  std::uint32_t depth() const;
  /// Slots a commit cycles through: depth committed versions plus the
  /// in-flight copy, capped at kMaxRingSlots.
  std::uint32_t slot_budget() const {
    return std::min(depth() + 1, kMaxRingSlots);
  }

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
  VersionRing(EpochDirectory* dir, RingRecord* rec) : dir_(dir), rec_(rec) {}

  // _locked variants assume the directory mutex is held.
  std::uint32_t newest_index_locked() const;
  /// The slot at `keep_off` if one is committed there, else the newest.
  std::uint32_t kept_index_locked(std::uint64_t keep_off) const;
  /// Oldest unpinned committed slot other than `keep` (kInvalidSlot: none).
  std::uint32_t oldest_reusable_locked(std::uint32_t keep) const;
  std::uint32_t oldest_reclaimable_locked(std::uint32_t floor) const;
  /// Free the slot's payload region and mark it kFree; returns bytes freed.
  std::uint64_t reclaim_slot_locked(std::uint32_t index);
  bool pinned_locked(std::uint64_t epoch) const;
  void persist_locked();
  Acquired acquire_locked(std::uint64_t keep_off);
  void set_quota_locked(vmem::CapacityQuota* quota);

  EpochDirectory* dir_;
  RingRecord* rec_;
  vmem::CapacityQuota* quota_ = nullptr;  // non-owning; tenant lifetime
  std::vector<std::uint64_t> pins_;  // runtime only; may hold duplicates
  // Runtime only: the slot published last, which breaks epoch ties in
  // newest_index_locked (the record's flip follows every publish).
  std::uint32_t last_published_ = kInvalidSlot;
};

}  // namespace nvmcp::epoch
