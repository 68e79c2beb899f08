// Emulated byte-addressable NVM device.
//
// Mirrors the paper's emulation methodology: DRAM pages stand in for PCM,
// writes are slowed to the configured NVM bandwidth by injected delays, and
// persistence across application sessions is provided by the backing store
// (the paper pinned kernel-reserved DRAM; we use a mmap'ed file, which also
// survives real process restarts).
//
// The device is a flat persistent arena plus the hardware-ish facilities the
// paper's kernel manager relies on:
//   * throttled write/read paths (device-shared + optional per-stream rate)
//   * a cache-flush epoch model: written pages are volatile until flushed;
//     simulate_crash() scrambles unflushed pages so crash-consistency is
//     actually testable
//   * per-page wear counters (PCM endurance is ~1e8 writes)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "nvm/bitmap.hpp"
#include "nvm/spec.hpp"
#include "nvm/throttle.hpp"

namespace nvmcp::fault {
class FaultInjector;
}

namespace nvmcp {

struct NvmConfig {
  std::size_t capacity = 256 * MiB;
  NvmSpec spec = NvmSpec::pcm();
  /// Empty => anonymous mapping (volatile; fine for tests/benches that
  /// simulate crashes in-process). Non-empty => file-backed, persistent
  /// across real process restarts.
  std::string backing_file;
  /// Emulate NVM bandwidth/latency with injected delays. Benches that only
  /// measure policy behaviour can disable it.
  bool throttle = true;
  bool track_wear = true;
};

struct NvmDeviceStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t read_calls = 0;
  double write_seconds = 0;
  std::uint32_t max_page_wear = 0;
  double max_wear_fraction = 0;  // max_page_wear / endurance
};

class NvmDevice {
 public:
  explicit NvmDevice(NvmConfig cfg);
  ~NvmDevice();

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  const NvmConfig& config() const { return cfg_; }
  std::size_t capacity() const { return cfg_.capacity; }
  std::size_t page_count() const { return cfg_.capacity / kNvmPageSize; }

  /// True if the backing file existed with a valid header: previously
  /// persisted contents (and the root offset) are available.
  bool reopened() const { return reopened_; }

  /// Direct pointer to the data arena. Reads through this pointer model
  /// NVM loads (near-DRAM latency, per Table I); writes MUST go through
  /// write() to be throttled, wear-counted and crash-tracked.
  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }

  /// Persistent root offset (stored in the device header). The vmem layer
  /// stores its metadata-region offset here so restart can find it.
  std::uint64_t root() const;
  void set_root(std::uint64_t off);

  /// Throttled persistent write of n bytes at arena offset `off`: the
  /// one-range case of write_ranges.
  double write(std::size_t off, const void* src, std::size_t n,
               BandwidthLimiter* stream = nullptr,
               std::uint64_t* crc_state = nullptr);

  /// Vectored write: one device request that moves the `ranges` of an
  /// n-byte span from src into the arena at `off` (range r moves
  /// src[r.off, r.end()) to off + r.off). `ranges` must be sorted by
  /// offset, disjoint and inside the span; otherwise this throws before a
  /// byte moves. `stream` optionally imposes an additional per-core rate
  /// (the paper's NVMBW_core knob). On a throttled device the request pays
  /// page_write_latency once, then its moved bytes at the limiters' rates.
  /// When `crc_state` is non-null it is advanced over the whole span in
  /// offset order, inline with the copy (fused single-pass checksum): a
  /// clean gap from the arena's bytes, a range from the bytes just placed
  /// there. Each range is then its own write to the fault injector, which
  /// may tear it, and to the wear and unflushed-page accounting; a torn
  /// write is still caught at restore, because the CRC was taken first.
  /// The call counts once in write_calls and moves the ranges' bytes; with
  /// no byte to move it is no request (no latency, no call counted) and
  /// only the CRC covers the span. Returns seconds spent.
  double write_ranges(std::size_t off, const void* src, std::size_t n,
                      std::span<const DirtyRange> ranges,
                      BandwidthLimiter* stream = nullptr,
                      std::uint64_t* crc_state = nullptr);

  /// Throttled read into dst. Reads are fast (Table I) but still modeled.
  /// A non-null `crc_state` is advanced over the bytes read, fused with
  /// the copy, so restore verification needs no second pass.
  double read(std::size_t off, void* dst, std::size_t n,
              BandwidthLimiter* stream = nullptr,
              std::uint64_t* crc_state = nullptr) const;

  /// Account for an in-place store done through data() without the
  /// throttled write path (used for small metadata stores, which on real
  /// hardware are 8-byte failure-atomic): bumps wear counters.
  /// Unlike write(), the store is treated as posted (not crash-scrambled),
  /// matching the persistent-memory assumption that aligned <=8B stores
  /// followed by a flush are failure-atomic.
  void mark_written_inplace(std::size_t off, std::size_t n);

  // --- durability epoch model ----------------------------------------
  /// Flush CPU-cached lines for [off, off+n): marks those pages durable.
  void flush(std::size_t off, std::size_t n);
  /// Ordering fence; modeled as a point where flushes become effective.
  void fence() {}
  std::size_t unflushed_page_count() const { return unflushed_.count_all(); }
  bool page_flushed(std::size_t page) const { return !unflushed_.test(page); }
  /// Scramble every page written-but-not-flushed, as a power failure
  /// would. Clears the unflushed set. Returns the number of pages
  /// scrambled (also recorded as the global telemetry counter
  /// "nvm.crash.pages_scrambled").
  std::size_t simulate_crash(Rng& rng);

  /// Attach a fault injector to the write path (chaos campaigns). The
  /// injector may tear writes (scramble a tail of the written span).
  /// nullptr detaches; when detached the hook costs one pointer check.
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

  // --- accounting -------------------------------------------------------
  NvmDeviceStats stats() const;
  BandwidthLimiter& write_limiter() { return write_limiter_; }

  /// Layout-occupancy accounting, kept in sync by the allocation layer
  /// (vmem::Container). `reserved_bytes` counts arena bytes claimed by
  /// metadata + data regions; `occupancy` is the saturation signal the
  /// epoch GC watermarks against (cpf's `is_saturated` shape).
  void note_reserved(std::int64_t delta) {
    reserved_bytes_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t reserved_bytes() const {
    const std::int64_t v = reserved_bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }
  double occupancy() const {
    return cfg_.capacity == 0
               ? 0.0
               : static_cast<double>(reserved_bytes()) /
                     static_cast<double>(cfg_.capacity);
  }

 private:
  void check_range(std::size_t off, std::size_t n) const;
  void touch_pages(std::size_t off, std::size_t n);

  NvmConfig cfg_;
  fault::FaultInjector* injector_ = nullptr;
  int fd_ = -1;
  std::byte* map_ = nullptr;   // header page + arena
  std::byte* data_ = nullptr;  // arena (map_ + one page)
  std::size_t map_size_ = 0;
  bool reopened_ = false;

  mutable BandwidthLimiter write_limiter_;
  mutable BandwidthLimiter read_limiter_;

  AtomicBitmap unflushed_;
  std::vector<std::atomic<std::uint32_t>> wear_;

  std::atomic<std::uint64_t> bytes_written_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> write_calls_{0};
  mutable std::atomic<std::uint64_t> read_calls_{0};
  std::atomic<std::uint64_t> write_ns_{0};
  std::atomic<std::int64_t> reserved_bytes_{0};
};

}  // namespace nvmcp
