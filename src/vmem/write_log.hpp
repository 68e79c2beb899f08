// Per-chunk dirty write logs (TrackMode::kWriteLog).
//
// The mprotect scheme pays one syscall + SIGSEGV (6-12 us) per chunk per
// interval -- cheap for HPC phase-structured writes, but the dominant
// checkpoint cost for small-random-write workloads (KV stores), where a
// 64-byte store can dirty a whole chunk. Here the writer instead calls a
// cheap log_write(off, len) hook AFTER the store; the range lands in the
// chunk's own log and the chunk's commit collects it without taking a
// single fault. The log's mutex is held for one push or one swap: the
// push's unlock publishes the store that preceded it to the collect that
// takes the range, so a collected range's bytes are always visible to
// the copier -- the store-then-log contract is what makes sub-page range
// copies safe without any fault dance.
//
// Overflow is a correctness valve, not an error: a log past kMaxRanges
// (or an untracked notify_write) raises the whole flag, which the
// collector turns into a whole-chunk pending range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "nvm/throttle.hpp"

namespace nvmcp::vmem {

/// Sort `ranges` by offset and merge overlapping ranges plus neighbours
/// whose gap is <= merge_gap bytes. A commit hands all of them to one
/// vectored device write either way; a merge trades up to merge_gap more
/// bytes moved for one range fewer to walk, account and keep pending.
void merge_dirty_ranges(std::vector<DirtyRange>& ranges,
                        std::uint64_t merge_gap);

/// One chunk's ranges logged since its last collect. Owned by the chunk's
/// WriteTracker, which sequences its counters around each record.
class WriteLog {
 public:
  /// A log holding this many uncollected ranges goes whole-chunk pending
  /// instead of growing: an uncollected chunk costs bounded memory.
  static constexpr std::size_t kMaxRanges = std::size_t{1} << 16;

  struct Collected {
    std::vector<DirtyRange> ranges;
    /// Logged coverage is unknown (overflow/notify_write): the caller must
    /// treat the whole chunk as dirty.
    bool whole = false;
  };

  /// Record [off, off + len). Returns the records discarded: 0, or, at
  /// kMaxRanges, every listed range plus this one (the log goes whole).
  std::uint64_t record(std::uint64_t off, std::uint64_t len);

  /// The next collect must treat the whole chunk as dirty.
  void raise_whole();

  /// Hand back (and clear) the ranges recorded since the last collect,
  /// plus the whole flag.
  Collected collect();

 private:
  std::mutex mu_;
  std::vector<DirtyRange> ranges_;
  bool whole_ = false;
};

}  // namespace nvmcp::vmem
