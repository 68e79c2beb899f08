// Bandwidth throttling: the mechanism behind the paper's NVM emulation
// ("we introduce data copy delays derived using the LANL memcpy benchmark
// ... and vary the effective per core bandwidth").
//
// A BandwidthLimiter models a pipe with a fixed byte rate as a virtual
// transfer timeline: each acquire(bytes) reserves the next slot on the
// timeline and returns the deadline at which the transfer would complete
// on real hardware; the caller memcpy's the block and then sleeps until
// that deadline. Concurrent users therefore share the pipe fairly and the
// aggregate rate never exceeds the configured bandwidth, while sleeping
// keeps the CPU free for compute threads (faithful overlap on small hosts).
//
// ThrottledCopier is the one loop that moves checkpoint bytes under those
// limiters: a copy is a span with a sorted list of ranges to move, and a
// plain n-byte copy is its one-range case.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>

#include "common/clock.hpp"

namespace nvmcp {

/// A half-open byte range [off, off+len) of a span: a dirty range of a
/// chunk's working buffer (write log or page tracking), and a range a
/// vectored copy or device write moves.
struct DirtyRange {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  std::uint64_t end() const { return off + len; }
};

class BandwidthLimiter {
 public:
  /// rate of 0 (or +inf) disables throttling.
  explicit BandwidthLimiter(double bytes_per_sec = 0.0)
      : rate_(bytes_per_sec) {}

  /// Reserve a slot for `bytes`; returns the completion deadline.
  /// Thread-safe. A limiter that has been idle does not accumulate burst
  /// credit: the slot starts no earlier than now.
  TimePoint acquire(std::size_t bytes);

  /// Change the rate. Backlog already reserved on the virtual timeline is
  /// re-timed at the new rate (the bytes still owed keep their place in
  /// line but drain at the new speed), so a QoS repartition mid-round
  /// takes effect immediately instead of honoring deadlines computed at
  /// the old rate. Switching to unlimited clears the backlog; switching
  /// from unlimited starts a fresh timeline (no retroactive debt).
  void set_rate(double bytes_per_sec);

  double rate() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rate_;
  }

  bool unlimited() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rate_ <= 0.0;
  }

  /// Transfer time reserved so far: the sum of bytes / rate over every
  /// acquire at a finite rate, each at the rate in force when it was made.
  /// This is the modeled time of the bytes that went through the pipe,
  /// whatever the scheduler did to the sleeps.
  double reserved_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reserved_seconds_;
  }

 private:
  mutable std::mutex mu_;
  double rate_;
  TimePoint next_free_{};  // epoch => idle
  double reserved_seconds_ = 0;
};

/// Copies memory while respecting up to two bandwidth limiters (e.g. a
/// per-core rate and a shared device rate); sleeps between blocks.
class ThrottledCopier {
 public:
  static constexpr std::size_t kBlockSize = 256 * 1024;

  /// Vectored copy over a span of n bytes: each range r moves
  /// src[r.off, r.end()) to dst[r.off, r.end()). `ranges` must be sorted
  /// by offset, disjoint and inside [0, n) (check_ranges). Any limiter
  /// pointer may be null (= unlimited); they are reserved per kBlockSize
  /// of moved bytes, each block copied first and then paid for by a
  /// reservation and a sleep to its deadline, so a vectored copy reserves
  /// exactly the bytes its ranges hold. When `crc_state` is non-null it is
  /// advanced over the whole span of dst in offset order: a clean gap from
  /// the bytes dst already holds, a range from the bytes just copied, while
  /// they are still cache-hot. The CRC reads the destination, not the
  /// source: the source may be a live application buffer being mutated
  /// concurrently, and checksum == bytes delivered holds only for dst.
  /// This is the fused single-pass CRC of the checkpoint data path.
  /// Returns seconds spent.
  static double copy(void* dst, const void* src, std::size_t n,
                     std::span<const DirtyRange> ranges, BandwidthLimiter* a,
                     BandwidthLimiter* b = nullptr,
                     std::uint64_t* crc_state = nullptr);

  /// Copy n bytes: the one-range case.
  static double copy(void* dst, const void* src, std::size_t n,
                     BandwidthLimiter* a, BandwidthLimiter* b = nullptr,
                     std::uint64_t* crc_state = nullptr);

  /// Throws NvmcpError unless `ranges` are sorted by offset, disjoint and
  /// inside a span of n bytes; returns the bytes they hold.
  static std::uint64_t check_ranges(std::size_t n,
                                    std::span<const DirtyRange> ranges);
};

}  // namespace nvmcp
