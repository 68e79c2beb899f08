// Per-thread append-only dirty write logs (TrackMode::kWriteLog).
//
// The mprotect scheme pays one syscall + SIGSEGV (6-12 us) per chunk per
// interval -- cheap for HPC phase-structured writes, but the dominant
// checkpoint cost for small-random-write workloads (KV stores), where a
// 64-byte store can dirty a whole chunk. Here the writer instead calls a
// cheap log_write(off, len) hook AFTER the store; the record lands in a
// per-thread lock-free SPSC ring and the copier drains every ring without
// taking a single fault. Because the producer publishes the record with a
// release store after the data store, a drained record's bytes are always
// visible to the copier -- the store-then-log contract is what makes
// sub-page range copies safe without any fault dance.
//
// Overflow is a correctness valve, not an error: a full ring (or an
// untracked notify_write) raises the sink's whole_dirty flag, which the
// collector turns into a whole-chunk pending range.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nvm/throttle.hpp"

namespace nvmcp::vmem {

struct WriteTracker;

/// Sort `ranges` by offset and merge overlapping ranges plus neighbours
/// whose gap is <= merge_gap bytes. A commit hands all of them to one
/// vectored device write either way; a merge trades up to merge_gap more
/// bytes moved for one range fewer to walk, account and keep pending.
void merge_dirty_ranges(std::vector<DirtyRange>& ranges,
                        std::uint64_t merge_gap);

/// Per-registration destination of logged writes. Owned by the
/// ProtectionManager's Range for a kWriteLog registration; writers hold a
/// raw pointer (via Chunk::log_write) for the registration's lifetime.
struct DirtyLogSink {
  WriteTracker* tracker = nullptr;
  /// Bumped on protect(); stamped into records (debugging/telemetry).
  std::atomic<std::uint32_t> epoch{0};
  /// Raised on ring overflow or notify_write: the next collection must
  /// treat the whole chunk as dirty.
  std::atomic<bool> whole_dirty{false};
  /// Records drained from the rings but not yet collected. Guarded by the
  /// registry mutex.
  std::vector<DirtyRange> pending;
};

/// Process-wide set of per-thread log shards. A writer thread appends to
/// its own shard without locks (single producer); the copier drains every
/// shard under one consumer mutex and dispatches records to their sinks.
class WriteLogRegistry {
 public:
  static WriteLogRegistry& instance();

  WriteLogRegistry(const WriteLogRegistry&) = delete;
  WriteLogRegistry& operator=(const WriteLogRegistry&) = delete;

  /// Append one dirty range. Must be called AFTER the store it describes
  /// (the release-publish of the record is what orders the data for the
  /// copier). Updates the sink's tracker: writes_logged is bumped before
  /// the dirty flag so ChunkAllocator::precopy_chunk can detect an append
  /// racing its dirty-flag clear, exactly like the fault counter.
  void append(DirtyLogSink* sink, std::uint64_t off, std::uint64_t len);

  struct Collected {
    std::vector<DirtyRange> ranges;
    /// Logged coverage is unknown (overflow/notify_write): the caller must
    /// treat the whole chunk as dirty.
    bool whole = false;
  };

  /// Drain every shard, dispatch records to their sinks, and hand back
  /// (and clear) `sink`'s accumulated ranges + overflow flag.
  Collected collect(DirtyLogSink* sink);

  /// Drain every shard and discard `sink`'s state (unregistration). The
  /// caller guarantees no concurrent append to `sink`.
  void purge(DirtyLogSink* sink);

  /// Ring capacity (records) for shards created after this call. Existing
  /// shards keep their size. Intended for tests forcing overflow.
  void set_shard_capacity(std::size_t records);
  std::size_t shard_capacity() const;

  // Process-wide accounting across all shards and sinks.
  std::uint64_t total_appends() const;
  std::uint64_t total_log_bytes() const;
  std::uint64_t total_drops() const;

 private:
  WriteLogRegistry() = default;

  struct Record {
    DirtyLogSink* sink = nullptr;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint32_t epoch = 0;
  };

  /// One SPSC ring: the owning thread is the only producer (tail), the
  /// registry mutex holder is the only consumer (head).
  struct Shard {
    explicit Shard(std::size_t cap) : ring(cap) {}
    std::vector<Record> ring;
    std::atomic<std::uint64_t> head{0};  // consumer cursor
    std::atomic<std::uint64_t> tail{0};  // producer cursor
    /// A dead thread's shard is recycled by the next new thread.
    std::atomic<bool> claimed{true};
    // Producer-side tallies (single writer, read under mu_ for totals).
    std::atomic<std::uint64_t> appends{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> drops{0};
  };

  Shard* my_shard();
  void drain_locked();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> capacity_{8192};  // records per new shard
};

}  // namespace nvmcp::vmem
