#include "nvm/device.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/checksum.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "fault/injector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp {
namespace {

constexpr std::uint64_t kMagic = 0x4e564d4350323031ULL;  // "NVMCP201"

struct DeviceHeader {
  std::uint64_t magic;
  std::uint64_t capacity;
  std::uint64_t root;  // vmem metadata-region offset, 0 = none
};

static_assert(sizeof(DeviceHeader) <= kNvmPageSize);

}  // namespace

NvmDevice::NvmDevice(NvmConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.capacity == 0 || !is_aligned(cfg_.capacity, kNvmPageSize)) {
    throw NvmcpError("NvmDevice: capacity must be a non-zero page multiple");
  }
  map_size_ = cfg_.capacity + kNvmPageSize;  // +1 header page

  void* addr = MAP_FAILED;
  if (cfg_.backing_file.empty()) {
    addr = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  } else {
    const bool existed = ::access(cfg_.backing_file.c_str(), F_OK) == 0;
    fd_ = ::open(cfg_.backing_file.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
      throw NvmcpError("NvmDevice: cannot open backing file " +
                       cfg_.backing_file + ": " + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      throw NvmcpError("NvmDevice: fstat failed");
    }
    const bool sized = st.st_size == static_cast<off_t>(map_size_);
    if (!sized && ::ftruncate(fd_, static_cast<off_t>(map_size_)) != 0) {
      throw NvmcpError("NvmDevice: ftruncate failed");
    }
    addr = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE, MAP_SHARED,
                  fd_, 0);
    if (addr != MAP_FAILED && existed && sized) {
      const auto* hdr = static_cast<const DeviceHeader*>(addr);
      reopened_ = hdr->magic == kMagic && hdr->capacity == cfg_.capacity;
    }
  }
  if (addr == MAP_FAILED) {
    if (fd_ >= 0) ::close(fd_);
    throw NvmcpError("NvmDevice: mmap failed: " +
                     std::string(std::strerror(errno)));
  }
  map_ = static_cast<std::byte*>(addr);
  data_ = map_ + kNvmPageSize;

  auto* hdr = reinterpret_cast<DeviceHeader*>(map_);
  if (!reopened_) {
    hdr->magic = kMagic;
    hdr->capacity = cfg_.capacity;
    hdr->root = 0;
  }

  write_limiter_.set_rate(cfg_.throttle ? cfg_.spec.write_bandwidth : 0.0);
  read_limiter_.set_rate(cfg_.throttle ? cfg_.spec.read_bandwidth : 0.0);

  const std::size_t pages = page_count();
  unflushed_.resize(pages);
  if (cfg_.track_wear) {
    wear_ = std::vector<std::atomic<std::uint32_t>>(pages);
  }
  log_info("NvmDevice: %s arena=%s %s%s", cfg_.spec.name.c_str(),
           format_bytes(static_cast<double>(cfg_.capacity)).c_str(),
           cfg_.backing_file.empty() ? "(volatile)"
                                     : cfg_.backing_file.c_str(),
           reopened_ ? " [reopened]" : "");
}

NvmDevice::~NvmDevice() {
  if (map_) ::munmap(map_, map_size_);
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t NvmDevice::root() const {
  return reinterpret_cast<const DeviceHeader*>(map_)->root;
}

void NvmDevice::set_root(std::uint64_t off) {
  reinterpret_cast<DeviceHeader*>(map_)->root = off;
}

void NvmDevice::check_range(std::size_t off, std::size_t n) const {
  if (off + n > cfg_.capacity || off + n < off) {
    throw NvmcpError("NvmDevice: access out of range (off=" +
                     std::to_string(off) + " n=" + std::to_string(n) +
                     " cap=" + std::to_string(cfg_.capacity) + ")");
  }
}

void NvmDevice::touch_pages(std::size_t off, std::size_t n) {
  if (n == 0) return;
  const std::size_t first = off / kNvmPageSize;
  const std::size_t last = (off + n - 1) / kNvmPageSize;
  for (std::size_t p = first; p <= last; ++p) {
    unflushed_.set(p);
    if (cfg_.track_wear) {
      wear_[p].fetch_add(1, std::memory_order_relaxed);
    }
  }
}

double NvmDevice::write(std::size_t off, const void* src, std::size_t n,
                        BandwidthLimiter* stream, std::uint64_t* crc_state) {
  const DirtyRange all{0, n};
  return write_ranges(off, src, n, {&all, 1}, stream, crc_state);
}

double NvmDevice::write_ranges(std::size_t off, const void* src,
                               std::size_t n,
                               std::span<const DirtyRange> ranges,
                               BandwidthLimiter* stream,
                               std::uint64_t* crc_state) {
  check_range(off, n);
  const std::uint64_t moved = ThrottledCopier::check_ranges(n, ranges);
  if (moved == 0) {
    if (crc_state) *crc_state = crc64_update(*crc_state, data_ + off, n);
    return 0.0;
  }
  telemetry::Span span("nvm_write", "nvm");
  const Stopwatch sw;
  // One pipelined request: its first page pays the write latency, and the
  // later pages stream behind the bandwidth term.
  if (cfg_.throttle) precise_sleep(cfg_.spec.page_write_latency);
  ThrottledCopier::copy(data_ + off, src, n, ranges,
                        cfg_.throttle ? &write_limiter_ : nullptr, stream,
                        crc_state);
  const bool tear = injector_ && injector_->armed();
  for (const DirtyRange& r : ranges) {
    if (tear) injector_->maybe_tear_write(data_ + off + r.off, r.len);
    touch_pages(off + r.off, r.len);
  }
  const double secs = sw.elapsed();
  bytes_written_.fetch_add(moved, std::memory_order_relaxed);
  write_calls_.fetch_add(1, std::memory_order_relaxed);
  write_ns_.fetch_add(static_cast<std::uint64_t>(secs * 1e9),
                      std::memory_order_relaxed);
  return secs;
}

double NvmDevice::read(std::size_t off, void* dst, std::size_t n,
                       BandwidthLimiter* stream,
                       std::uint64_t* crc_state) const {
  check_range(off, n);
  if (n == 0) return 0.0;
  const Stopwatch sw;
  if (cfg_.throttle) precise_sleep(cfg_.spec.page_read_latency);
  ThrottledCopier::copy(dst, data_ + off, n,
                        cfg_.throttle ? &read_limiter_ : nullptr, stream,
                        crc_state);
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  read_calls_.fetch_add(1, std::memory_order_relaxed);
  return sw.elapsed();
}

void NvmDevice::mark_written_inplace(std::size_t off, std::size_t n) {
  check_range(off, n);
  if (n == 0) return;
  const std::size_t first = off / kNvmPageSize;
  const std::size_t last = (off + n - 1) / kNvmPageSize;
  if (cfg_.track_wear) {
    for (std::size_t p = first; p <= last; ++p) {
      wear_[p].fetch_add(1, std::memory_order_relaxed);
    }
  }
  bytes_written_.fetch_add(n, std::memory_order_relaxed);
}

void NvmDevice::flush(std::size_t off, std::size_t n) {
  check_range(off, n);
  if (n == 0) return;
  const std::size_t first = off / kNvmPageSize;
  const std::size_t last = (off + n - 1) / kNvmPageSize;
  unflushed_.clear_range(first, last - first + 1);
}

std::size_t NvmDevice::simulate_crash(Rng& rng) {
  const std::size_t pages = page_count();
  std::size_t scrambled = 0;
  for (std::size_t p = 0; p < pages; ++p) {
    if (!unflushed_.test(p)) continue;
    // A torn/incomplete write: garble the page contents.
    auto* page = data_ + p * kNvmPageSize;
    for (std::size_t i = 0; i < kNvmPageSize; i += 8) {
      const std::uint64_t junk = rng.next_u64();
      std::memcpy(page + i, &junk, 8);
    }
    ++scrambled;
  }
  unflushed_.clear_all();
  telemetry::MetricRegistry::global()
      .counter("nvm.crash.pages_scrambled")
      .add(scrambled);
  log_info("NvmDevice: crash simulated, %zu unflushed pages scrambled",
           scrambled);
  return scrambled;
}

NvmDeviceStats NvmDevice::stats() const {
  NvmDeviceStats s;
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.write_calls = write_calls_.load(std::memory_order_relaxed);
  s.read_calls = read_calls_.load(std::memory_order_relaxed);
  s.write_seconds =
      static_cast<double>(write_ns_.load(std::memory_order_relaxed)) * 1e-9;
  if (cfg_.track_wear) {
    std::uint32_t max_wear = 0;
    for (const auto& w : wear_) {
      max_wear = std::max(max_wear, w.load(std::memory_order_relaxed));
    }
    s.max_page_wear = max_wear;
    s.max_wear_fraction =
        static_cast<double>(max_wear) / cfg_.spec.write_endurance;
  }
  return s;
}

}  // namespace nvmcp
