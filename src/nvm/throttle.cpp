#include "nvm/throttle.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/checksum.hpp"
#include "common/error.hpp"

namespace nvmcp {

TimePoint BandwidthLimiter::acquire(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const TimePoint now = Clock::now();
  if (rate_ <= 0.0) return now;  // unlimited
  const double secs = static_cast<double>(bytes) / rate_;
  reserved_seconds_ += secs;
  const auto duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(secs));
  const TimePoint start = std::max(now, next_free_);
  next_free_ = start + duration;
  return next_free_;
}

void BandwidthLimiter::set_rate(double bytes_per_sec) {
  std::lock_guard<std::mutex> lock(mu_);
  const TimePoint now = Clock::now();
  if (rate_ > 0.0 && next_free_ > now) {
    // Convert the outstanding reservation back into bytes at the old rate,
    // then re-time those bytes at the new rate from now.
    const double backlog_secs =
        std::chrono::duration<double>(next_free_ - now).count();
    const double backlog_bytes = backlog_secs * rate_;
    if (bytes_per_sec <= 0.0) {
      next_free_ = now;
    } else {
      next_free_ = now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(backlog_bytes /
                                                           bytes_per_sec));
    }
  }
  rate_ = bytes_per_sec;
}

namespace {

/// Pays for moved bytes one kBlockSize at a time: a full block is
/// reserved on the limiters and slept to its latest deadline, and
/// finish() pays for the last partial block.
class BlockPacer {
 public:
  BlockPacer(BandwidthLimiter* a, BandwidthLimiter* b) : a_(a), b_(b) {}

  /// Bytes the current block can still take.
  std::size_t room() const { return ThrottledCopier::kBlockSize - unpaid_; }

  /// Note len <= room() bytes moved; a full block is paid at once.
  void moved(std::size_t len) {
    unpaid_ += len;
    if (unpaid_ == ThrottledCopier::kBlockSize) finish();
  }

  void finish() {
    if (unpaid_ == 0) return;
    if (a_ || b_) {
      TimePoint deadline = Clock::now();
      if (a_) deadline = std::max(deadline, a_->acquire(unpaid_));
      if (b_) deadline = std::max(deadline, b_->acquire(unpaid_));
      sleep_until(deadline);
    }
    unpaid_ = 0;
  }

 private:
  BandwidthLimiter* a_;
  BandwidthLimiter* b_;
  std::size_t unpaid_ = 0;
};

}  // namespace

double ThrottledCopier::copy(void* dst, const void* src, std::size_t n,
                             std::span<const DirtyRange> ranges,
                             BandwidthLimiter* a, BandwidthLimiter* b,
                             std::uint64_t* crc_state) {
  const Stopwatch sw;
  auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  auto fold = [&](std::uint64_t off, std::uint64_t len) {
    if (crc_state && len) *crc_state = crc64_update(*crc_state, d + off, len);
  };
  BlockPacer pacer(a, b);
  std::uint64_t pos = 0;
  for (const DirtyRange& r : ranges) {
    fold(pos, r.off - pos);  // clean gap: the bytes dst already holds
    for (std::uint64_t off = r.off; off < r.end();) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(pacer.room(), r.end() - off));
      std::memcpy(d + off, s + off, len);
      // CRC the destination, not the source: a store landing in a live
      // source between the memcpy and a second source read would make the
      // checksum disagree with the bytes actually placed in dst. The
      // destination block is private to this copy (still cache-hot), so
      // checksum == delivered bytes, always.
      fold(off, len);
      pacer.moved(len);
      off += len;
    }
    pos = r.end();
  }
  pacer.finish();
  fold(pos, n - pos);
  return sw.elapsed();
}

double ThrottledCopier::copy(void* dst, const void* src, std::size_t n,
                             BandwidthLimiter* a, BandwidthLimiter* b,
                             std::uint64_t* crc_state) {
  const DirtyRange all{0, n};
  return copy(dst, src, n, {&all, 1}, a, b, crc_state);
}

std::uint64_t ThrottledCopier::check_ranges(
    std::size_t n, std::span<const DirtyRange> ranges) {
  std::uint64_t pos = 0;
  std::uint64_t bytes = 0;
  for (const DirtyRange& r : ranges) {
    if (r.off < pos || r.off > n || r.len > n - r.off) {
      throw NvmcpError(
          "ThrottledCopier: ranges must be sorted, disjoint and inside the "
          "span (off=" + std::to_string(r.off) +
          " len=" + std::to_string(r.len) + " span=" + std::to_string(n) +
          ")");
    }
    pos = r.end();
    bytes += r.len;
  }
  return bytes;
}

}  // namespace nvmcp
