// The NVM user library allocation + checkpoint + restart components
// (paper Table III and Section V).
//
//   genid(varname)            -> stable 64-bit id from a variable name
//   nvalloc(id, size, pflg)   -> allocate a chunk (DRAM working buffer +
//                                two shadow NVM version slots); with the
//                                persistent flag on a reopened device the
//                                committed payload is read back (restart)
//   nv2dalloc(id, d1, d2)     -> 2D array convenience wrapper
//   nvattach(id, src, size)   -> adopt existing app-owned DRAM and give it
//                                shadow NVM slots (software dirty tracking)
//   nvrealloc(id, size)       -> grow a chunk, preserving committed data
//   nvdelete(id)              -> drop a chunk and free its NVM regions
//
// Checkpoint primitives (used by core::CheckpointManager to implement
// nvchkptall / nvchkptid and the pre-copy engines):
//   precopy_chunk()           -> DRAM -> in-progress NVM slot, flushed, no
//                                commit; tolerates concurrent re-dirtying
//   commit_chunk()            -> flip the committed-slot pointer for a
//                                chunk whose in-progress slot holds epoch
//                                data (crash-safe ordering)
//   restore_chunk()           -> committed NVM slot -> DRAM with checksum
//                                verification
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

struct AllocStats {
  std::size_t chunk_count = 0;
  std::size_t total_payload_bytes = 0;
  std::size_t nvm_bytes_reserved = 0;  // 2x payload (two version slots)
};

class ChunkAllocator {
 public:
  struct Options {
    /// Default dirty-tracking mode for nvalloc'd chunks. nvattach always
    /// uses software tracking (app memory need not be page aligned).
    vmem::TrackMode track_mode = vmem::TrackMode::kMprotect;
    /// Verify checksums when restoring.
    bool verify_checksums = true;
    /// kWriteLog: merge logged ranges whose gap is <= this many bytes
    /// before copying (-1: NVMCP_DIRTY_LOG_MERGE_GAP, default 512).
    long dirty_log_merge_gap = -1;
    /// kWriteLog: fall back to a whole-chunk copy when merged logged
    /// coverage exceeds this fraction of the chunk (-1:
    /// NVMCP_DIRTY_LOG_MAX_COVERAGE, default 0.5).
    double dirty_log_max_coverage = -1;
    /// Committed epochs retained per chunk (0: NVMCP_EPOCH_RING_DEPTH,
    /// default 1). Depth 1 is the paper's two-slot scheme, byte-for-byte;
    /// depth N > 1 keeps the last N epochs in a per-chunk version ring
    /// addressable through the epoch directory. Reopening a container at
    /// the other layout throws NvmcpError; ring depths may change (4 -> 2).
    int ring_depth = 0;
    /// Multi-tenant arena mode: use this epoch directory (owned by the
    /// arena, shared by every tenant — a container has exactly one epoch
    /// region) instead of creating one. Overrides ring_depth with the
    /// directory's depth.
    epoch::EpochDirectory* shared_dir = nullptr;
    /// Per-tenant NVM capacity quota charged for every version-slot
    /// region this allocator (and its rings) holds; enforced at
    /// acquisition. nullptr = unmetered (single-tenant default).
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

  /// Adopt app-owned memory: creates shadow NVM slots for [src, src+size).
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

  AllocStats stats() const;
  vmem::Container& container() { return *container_; }

  // --- checkpoint primitives -------------------------------------------
  /// Copy the DRAM payload into the chunk's in-progress NVM slot and flush
  /// it; records the payload checksum and `epoch` in the chunk (not yet in
  /// the persistent record). The checksum is computed inline with the copy
  /// (single pass over the payload). Clears dirty_local and re-arms
  /// protection *before* copying, so a store racing with the copy re-marks
  /// the chunk dirty and the torn slot is never committed. Thread-safe for
  /// distinct chunks (the sharded commit path runs one worker per chunk);
  /// callers must never run two copies of the SAME chunk concurrently.
  /// With `skip_arm` the caller promises the chunk was armed by a
  /// preceding arm_chunks() batch; the per-chunk re-arm is then elided
  /// unless a fault or notify may have disarmed it (detected via the
  /// event-count snapshot arm_chunks took). Returns seconds spent.
  double precopy_chunk(Chunk& c, std::uint64_t epoch,
                       BandwidthLimiter* stream = nullptr,
                       bool skip_arm = false);

  /// Batched re-arm: protect every chunk in `cs` through
  /// ProtectionManager::protect_batch (address-adjacent ranges coalesce
  /// into one mprotect call), snapshotting each chunk's event count first
  /// so a later precopy_chunk(..., skip_arm=true) can detect an
  /// intervening fault or notify. Returns the number of mprotect calls
  /// issued.
  std::size_t arm_chunks(const std::vector<Chunk*>& cs);

  /// Crash-safe commit of the in-progress slot holding `epoch` data:
  /// updates checksum/epoch fields, then flips the committed index, then
  /// persists the record. Caller guarantees the slot is not torn (chunk
  /// clean since its last precopy, or copied under a paused application).
  void commit_chunk(Chunk& c, std::uint64_t epoch);

  /// Convenience for the coordinated path: precopy + commit.
  double checkpoint_chunk(Chunk& c, std::uint64_t epoch,
                          BandwidthLimiter* stream = nullptr,
                          bool skip_arm = false);

  /// Read the committed slot back into DRAM, verifying the checksum.
  RestoreStatus restore_chunk(Chunk& c);

  /// Restore-on-first-access: map the chunk PROT_NONE and copy the
  /// committed NVM payload into DRAM only when the application first
  /// touches it (the fault handler does the copy -- cheap because NVM
  /// *reads* run at near-DRAM speed, Table I). Restart latency becomes
  /// O(touched data) instead of O(checkpoint size). Returns false if the
  /// chunk has no committed version or is not mprotect-tracked.
  bool restore_chunk_lazy(Chunk& c);

  /// State of a lazy restore armed on this chunk.
  vmem::ProtectionManager::LazyState lazy_state(const Chunk& c) const;

  /// Read the committed payload of a chunk record into caller memory
  /// (used by the remote checkpointer, which reads local NVM, and by
  /// restore-from-remote). Returns false on checksum mismatch.
  bool read_committed(const Chunk& c, void* dst) const;

  // --- version ring (ring_depth > 1) -----------------------------------
  /// The epoch directory, or nullptr when ring_depth == 1 (legacy
  /// two-slot mode runs with zero ring overhead).
  epoch::EpochDirectory* epoch_directory() { return dir_; }
  /// False when the directory is arena-owned (Options::shared_dir): the
  /// arena then owns GC policy too, so per-tenant managers must not spin
  /// up their own device-wide GC threads.
  bool owns_directory() const { return owned_dir_ != nullptr; }
  std::uint32_t ring_depth() const { return ring_depth_; }
  vmem::CapacityQuota* quota() const { return opts_.quota; }

  /// Restore a specific retained epoch into DRAM (0 = newest committed).
  /// The source slot is pinned against GC/reuse for the duration of the
  /// read. kNoData if the epoch is not retained for this chunk.
  RestoreStatus restore_chunk_epoch(Chunk& c, std::uint64_t epoch);

  /// Addressable epochs for this chunk, newest first: the record's
  /// committed epoch followed by the older epochs retained in its ring.
  std::vector<std::uint64_t> retained_epochs(const Chunk& c) const;

  /// Read the payload of any retained epoch into caller memory without
  /// touching the chunk's DRAM buffer (delta-codec base reads: the remote
  /// sender XORs against it, restore decode re-reads it). Epoch 0 or the
  /// newest committed epoch degrade to read_committed; older epochs come
  /// from the version ring, pinned for the duration of the read. Returns
  /// false when the epoch is not retained or fails verification.
  bool read_retained(Chunk& c, std::uint64_t epoch, void* dst);

  /// Pin/unpin a retained epoch against reclamation (streaming-restore
  /// sources, shipped delta-frame bases). No-ops without a ring or for
  /// epoch 0.
  void pin_epoch(Chunk& c, std::uint64_t epoch);
  void unpin_epoch(Chunk& c, std::uint64_t epoch);

 private:
  Chunk* alloc_common(std::uint64_t id, std::size_t size, bool persistent,
                      std::string_view name, void* attach_src);
  void release_chunk_locked(Chunk& c, bool free_regions);
  /// Number of per-chunk pending-list slots (2 legacy, ring capacity with
  /// a directory) and (re)initialization to whole-chunk-pending.
  std::size_t pending_slot_count() const;
  void reset_pending_lists(Chunk& c);
  void reset_pending_slot(Chunk& c, std::uint32_t slot);
  /// Page-level tracking mode: copy only the pages pending for pending
  /// list `slot` into the device region at `dst_off`, folding every
  /// payload byte (copied or clean) into `crc_state` so the whole-chunk
  /// checksum comes out of the same pass.
  double copy_dirty_pages_locked(Chunk& c, std::uint32_t slot,
                                 std::uint64_t dst_off,
                                 BandwidthLimiter* stream,
                                 std::uint64_t* crc_state);
  /// kWriteLog: copy only the logged dirty byte ranges pending for `slot`
  /// (merged, clamped, with whole-chunk fallback past the coverage
  /// threshold), folding every payload byte into `crc_state` like the
  /// page-level path.
  double copy_dirty_ranges_locked(Chunk& c, std::uint32_t slot,
                                  std::uint64_t dst_off,
                                  BandwidthLimiter* stream,
                                  std::uint64_t* crc_state);

  vmem::Container* container_;
  Options opts_;
  std::uint64_t log_merge_gap_ = 512;
  double log_max_coverage_ = 0.5;
  std::uint32_t ring_depth_ = 1;
  std::unique_ptr<epoch::EpochDirectory> owned_dir_;
  epoch::EpochDirectory* dir_ = nullptr;  // owned_dir_ or Options::shared_dir

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace nvmcp::alloc
