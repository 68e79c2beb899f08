// The NVM user library allocation + checkpoint + restart components
// (paper Table III and Section V).
//
//   genid(varname)            -> stable 64-bit id from a variable name
//   nvalloc(id, size, pflg)   -> allocate a chunk (DRAM working buffer +
//                                a version ring whose NVM slots are taken
//                                at the first commit that needs them);
//                                with the persistent flag on a reopened
//                                device the committed payload is read back
//                                (restart)
//   nv2dalloc(id, d1, d2)     -> 2D array convenience wrapper
//   nvattach(id, src, size)   -> adopt existing app-owned DRAM and give it
//                                a version ring (software dirty tracking)
//   nvrealloc(id, size)       -> grow a chunk, preserving committed data
//   nvdelete(id)              -> drop a chunk and free its NVM regions
//
// Checkpoint primitives (used by core::CheckpointManager to implement
// nvchkptall / nvchkptid and the pre-copy engines):
//   precopy_chunk()           -> DRAM -> acquired ring slot, flushed, no
//                                commit; tolerates concurrent re-dirtying.
//                                Copies the whole chunk, or under
//                                kMprotectPage/kWriteLog only the dirty
//                                byte ranges the tracker collected
//   commit_chunk()            -> publish the acquired ring slot: its epoch
//                                and CRC, then the record's committed index
//                                (crash-safe ordering)
//   restore_chunk()           -> committed (or a retained) NVM slot ->
//                                DRAM with checksum verification
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "alloc/chunk.hpp"
#include "epoch/directory.hpp"
#include "nvm/throttle.hpp"
#include "vmem/container.hpp"

namespace nvmcp::alloc {

/// FNV-1a 64-bit hash of a variable name; the paper's genid().
std::uint64_t genid(std::string_view varname);

class ChunkAllocator {
 public:
  struct Options {
    /// Default dirty-tracking mode for nvalloc'd chunks. nvattach always
    /// uses software tracking (app memory need not be page aligned).
    vmem::TrackMode track_mode = vmem::TrackMode::kMprotect;
    /// Verify checksums when restoring.
    bool verify_checksums = true;
    /// kWriteLog and kMprotectPage: merge dirty ranges (logged writes or
    /// faulted page runs) whose gap is <= this many bytes before copying
    /// (a negative gap counts as 0).
    long dirty_log_merge_gap = 512;
    /// kWriteLog and kMprotectPage: fall back to a whole-chunk copy when
    /// merged dirty coverage exceeds this fraction of the chunk (clamped
    /// to [0, 1]).
    double dirty_log_max_coverage = 0.5;
    /// Committed epochs retained per chunk, clamped to [1, kMaxRingDepth].
    /// Every chunk keeps its versions in a per-chunk ring of depth + 1
    /// slots addressable through the epoch directory; depth 1 is the
    /// paper's two-slot alternation. Ring depths may change across
    /// reopens (1 -> 4 -> 2).
    int ring_depth = 1;
    /// Multi-tenant arena mode: use this epoch directory (owned by the
    /// arena, shared by every tenant — a container's chunk records have
    /// exactly one directory) instead of creating one. Overrides
    /// ring_depth with the directory's depth.
    epoch::EpochDirectory* shared_dir = nullptr;
    /// Per-tenant NVM capacity quota charged for every ring slot region
    /// this allocator's rings hold; enforced when a commit acquires a
    /// slot. nullptr = unmetered (single-tenant default).
    vmem::CapacityQuota* quota = nullptr;
  };

  explicit ChunkAllocator(vmem::Container& container);
  ChunkAllocator(vmem::Container& container, Options opts);
  ~ChunkAllocator();

  ChunkAllocator(const ChunkAllocator&) = delete;
  ChunkAllocator& operator=(const ChunkAllocator&) = delete;

  // --- Table III interfaces -------------------------------------------
  /// Allocate a chunk. If `persistent` and the container was re-attached
  /// with a committed version of this id, the payload is restored into the
  /// fresh DRAM buffer (check chunk->restore_status()).
  Chunk* nvalloc(std::uint64_t id, std::size_t size, bool persistent,
                 std::string_view name = {});
  Chunk* nvalloc(std::string_view varname, std::size_t size, bool persistent);

  /// Contiguous dim1 x dim2 array of `elem` bytes per element.
  Chunk* nv2dalloc(std::string_view varname, std::size_t dim1,
                   std::size_t dim2, std::size_t elem, bool persistent);

  /// Adopt app-owned memory: gives [src, src+size) a version ring.
  /// Dirty tracking is software mode (call chunk->notify_write()).
  Chunk* nvattach(std::uint64_t id, void* src, std::size_t size,
                  std::string_view name = {});

  /// Grow (or shrink) a chunk. Preserves the committed NVM payload and the
  /// DRAM prefix. Returns the (possibly moved) chunk.
  Chunk* nvrealloc(std::uint64_t id, std::size_t new_size);

  /// Drop a chunk: unregister tracking, free NVM regions, invalidate its
  /// record. The DRAM buffer dies with it (attached buffers stay owned by
  /// the application).
  void nvdelete(std::uint64_t id);

  Chunk* find(std::uint64_t id);

  /// Stable snapshot of current chunks (pre-copy engine iterates this).
  std::vector<Chunk*> chunks() const;

  /// Run fn(live) under the shared lock, `live` being the chunks of `cs`
  /// not nvdeleted since `cs` was listed, so none is freed under fn. fn
  /// must not call nvalloc/nvrealloc/nvdelete/find/chunks.
  void with_live(const std::vector<Chunk*>& cs,
                 const std::function<void(const std::vector<Chunk*>&)>& fn)
      const;

  vmem::Container& container() { return *container_; }

  // --- checkpoint primitives -------------------------------------------
  /// What one chunk copy did: seconds spent, and payload bytes moved to
  /// the device (the merged dirty ranges of a range copy, the chunk size
  /// of a whole copy).
  struct Copied {
    double seconds = 0;
    std::uint64_t bytes = 0;
  };

  /// Copy the DRAM payload into a ring slot acquired for the next commit
  /// and flush it; records the payload checksum and `epoch` in the chunk
  /// (not yet in the persistent record). The checksum is computed inline with the copy
  /// (single pass over the payload). Clears dirty_local and re-arms
  /// protection *before* copying, so a store racing with the copy re-marks
  /// the chunk dirty and the torn slot is never committed. Thread-safe for
  /// distinct chunks (the sharded commit path runs one worker per chunk);
  /// callers must never run two copies of the SAME chunk concurrently.
  /// With `skip_arm` the caller promises the chunk was armed by a
  /// preceding arm_chunks() batch; the per-chunk re-arm is then elided
  /// unless a fault or notify may have disarmed it (detected via the
  /// event-count snapshot arm_chunks took).
  Copied precopy_chunk(Chunk& c, std::uint64_t epoch,
                       BandwidthLimiter* stream = nullptr,
                       bool skip_arm = false);

  /// Batched re-arm: protect every chunk in `cs` through
  /// ProtectionManager::protect_batch (address-adjacent ranges coalesce
  /// into one mprotect call), snapshotting each chunk's event count first
  /// so a later precopy_chunk(..., skip_arm=true) can detect an
  /// intervening fault or notify. Returns the number of mprotect calls
  /// issued.
  std::size_t arm_chunks(const std::vector<Chunk*>& cs);

  /// Crash-safe commit of the acquired slot holding `epoch` data: persists
  /// the slot's epoch and CRC, then stores and persists the record's
  /// committed index (VersionRing::publish). Caller guarantees the slot is
  /// not torn (chunk clean since its last precopy, or copied under a
  /// paused application).
  void commit_chunk(Chunk& c, std::uint64_t epoch);

  /// Convenience for the coordinated path: precopy + commit.
  Copied checkpoint_chunk(Chunk& c, std::uint64_t epoch,
                          BandwidthLimiter* stream = nullptr,
                          bool skip_arm = false);

  /// Read a slot back into DRAM, verifying the checksum: the acknowledged
  /// one for epoch 0 (kOk), or that retained epoch (kOkStale, or kOk when
  /// it is the acknowledged one). kNoData when the epoch is not retained.
  RestoreStatus restore_chunk(Chunk& c, std::uint64_t epoch = 0);

  /// Restore-on-first-access: map the chunk PROT_NONE and copy the
  /// committed NVM payload into DRAM only when the application first
  /// touches it (the fault handler does the copy -- cheap because NVM
  /// *reads* run at near-DRAM speed, Table I). Restart latency becomes
  /// O(touched data) instead of O(checkpoint size). Returns false if the
  /// chunk has no committed version or is not mprotect-tracked.
  bool restore_chunk_lazy(Chunk& c);

  /// State of a lazy restore armed on this chunk.
  vmem::ProtectionManager::LazyState lazy_state(const Chunk& c) const;

  /// The chunk's acknowledged version: its slot offset, epoch and CRC,
  /// read together under the directory mutex commits publish under.
  /// nullopt before the first commit. Every reader of the committed
  /// version goes through here.
  std::optional<epoch::RingSlot> acknowledged(const Chunk& c) const;

  /// Read the acknowledged payload into caller memory (used by the remote
  /// checkpointer, which reads local NVM, and by restore-from-remote),
  /// storing its epoch in `*epoch` if non-null. Returns false when nothing
  /// is committed or on checksum mismatch.
  bool read_committed(const Chunk& c, void* dst,
                      std::uint64_t* epoch = nullptr) const;

  // --- version ring ----------------------------------------------------
  /// The epoch directory (owned, or the arena's Options::shared_dir).
  epoch::EpochDirectory* epoch_directory() { return dir_; }
  /// False when the directory is arena-owned (Options::shared_dir): the
  /// arena then owns GC policy too, so per-tenant managers must not spin
  /// up their own device-wide GC threads.
  bool owns_directory() const { return owned_dir_ != nullptr; }
  std::uint32_t ring_depth() const { return ring_depth_; }
  vmem::CapacityQuota* quota() const { return opts_.quota; }

  /// Addressable epochs for this chunk, newest (the acknowledged one)
  /// first.
  std::vector<std::uint64_t> retained_epochs(const Chunk& c) const;

  /// Rollback walk: restore the newest retained epoch older than `epoch`
  /// (0: older than the newest committed one) whose slot still verifies.
  /// Returns that epoch, or 0 when none does.
  std::uint64_t restore_older_epoch(Chunk& c, std::uint64_t epoch);

  /// Pin/unpin a retained epoch against reclamation (the restart walk's
  /// explicit-epoch sources). No-ops for epoch 0.
  void pin_epoch(Chunk& c, std::uint64_t epoch);
  void unpin_epoch(Chunk& c, std::uint64_t epoch);

 private:
  Chunk* alloc_common(std::uint64_t id, std::size_t size, bool persistent,
                      std::string_view name, void* attach_src);
  void release_chunk_locked(Chunk& c, bool free_regions);
  /// The one slot reader under every public read: pin `epoch` unless it is
  /// the acknowledged one (0), find its slot, read it into `dst` with the
  /// CRC fused, verify, unpin. kOk for the acknowledged slot, kOkStale for
  /// an older one, kNoData when none holds `epoch`, kChecksumMismatch when
  /// the bytes fail verification. Stores the slot's epoch in `*read_epoch`
  /// on success.
  RestoreStatus read_slot(const Chunk& c, std::uint64_t epoch, void* dst,
                          std::uint64_t* read_epoch = nullptr) const;
  /// (Re)initialize a range-tracked chunk's pending lists, one per ring
  /// slot within the budget, to whole-chunk-pending.
  void reset_pending_lists(Chunk& c);
  void reset_pending_slot(Chunk& c, std::uint32_t slot);
  /// Slot `slot` keeps a pending range list: the chunk is range-tracked
  /// and the slot lies within its ring's budget.
  static bool has_pending_list(const Chunk& c, std::uint32_t slot) {
    return slot < c.slot_ranges_pending_.size();
  }
  /// kMprotectPage and kWriteLog: copy only the dirty byte ranges pending
  /// for ring slot `slot` (merged, clamped, with whole-chunk fallback past
  /// the coverage threshold or for a slot past the ring's budget, which
  /// keeps no list) into the device region at `dst_off` in one vectored
  /// write, folding every payload byte (copied or clean) into `crc_state`
  /// so the whole-chunk checksum comes out of the same pass. `published`
  /// is the checksum a reused slot was committed with, when it still has
  /// to be verified: a range copy verifies the slot against it before
  /// folding its clean bytes and copies the whole chunk on a mismatch; a
  /// whole copy folds no slot byte and skips it.
  Copied copy_dirty_ranges_locked(Chunk& c, std::uint32_t slot,
                                  std::uint64_t dst_off,
                                  BandwidthLimiter* stream,
                                  std::optional<std::uint64_t> published,
                                  std::uint64_t* crc_state);

  vmem::Container* container_;
  Options opts_;
  std::uint64_t log_merge_gap_ = 512;
  double log_max_coverage_ = 0.5;
  std::uint32_t ring_depth_ = 1;
  std::unique_ptr<epoch::EpochDirectory> owned_dir_;
  epoch::EpochDirectory* dir_;  // owned_dir_ or Options::shared_dir

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace nvmcp::alloc
