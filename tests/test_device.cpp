// Unit tests for the emulated NVM device: arena access, throttled write
// timing, vectored writes, wear counters, the flush/crash durability model,
// and file-backed persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "nvm/device.hpp"
#include "nvm/throttle.hpp"
#include "telemetry/metrics.hpp"

namespace nvmcp {
namespace {

NvmConfig small_config(bool throttle = false) {
  NvmConfig cfg;
  cfg.capacity = 4 * MiB;
  cfg.throttle = throttle;
  return cfg;
}

TEST(NvmDevice, RejectsUnalignedCapacity) {
  NvmConfig cfg;
  cfg.capacity = 12345;
  EXPECT_THROW(NvmDevice dev(cfg), NvmcpError);
}

TEST(NvmDevice, RejectsZeroCapacity) {
  NvmConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(NvmDevice dev(cfg), NvmcpError);
}

TEST(NvmDevice, WriteReadRoundTrip) {
  NvmDevice dev(small_config());
  std::vector<std::byte> src(64 * KiB);
  Rng rng(7);
  for (auto& b : src) b = static_cast<std::byte>(rng.next_u64());
  dev.write(8 * KiB, src.data(), src.size());
  std::vector<std::byte> dst(src.size());
  dev.read(8 * KiB, dst.data(), dst.size());
  EXPECT_EQ(0, std::memcmp(src.data(), dst.data(), src.size()));
}

TEST(NvmDevice, DirectLoadSeesWrites) {
  NvmDevice dev(small_config());
  const char msg[] = "byte addressable";
  dev.write(0, msg, sizeof(msg));
  EXPECT_EQ(0, std::memcmp(dev.data(), msg, sizeof(msg)));
}

TEST(NvmDevice, OutOfRangeAccessThrows) {
  NvmDevice dev(small_config());
  char b = 0;
  EXPECT_THROW(dev.write(dev.capacity(), &b, 1), NvmcpError);
  EXPECT_THROW(dev.read(dev.capacity() - 1, &b, 2), NvmcpError);
}

TEST(NvmDevice, ThrottledWriteRespectsBandwidth) {
  NvmConfig cfg = small_config(/*throttle=*/true);
  cfg.spec.write_bandwidth = 64.0 * MiB;  // slow: 2 MiB should take ~31 ms
  cfg.spec.page_write_latency = 0;
  NvmDevice dev(cfg);
  std::vector<std::byte> src(2 * MiB, std::byte{1});
  const double secs = dev.write(0, src.data(), src.size());
  const double expected = static_cast<double>(src.size()) / (64.0 * MiB);
  EXPECT_GT(secs, 0.7 * expected);
  EXPECT_LT(secs, 2.0 * expected);
}

TEST(NvmDevice, UnthrottledWriteIsFast) {
  NvmDevice dev(small_config(/*throttle=*/false));
  std::vector<std::byte> src(2 * MiB, std::byte{1});
  const double secs = dev.write(0, src.data(), src.size());
  EXPECT_LT(secs, 0.1);
}

TEST(NvmDevice, WearCountsAccumulate) {
  NvmDevice dev(small_config());
  std::vector<std::byte> src(kNvmPageSize, std::byte{3});
  for (int i = 0; i < 5; ++i) dev.write(0, src.data(), src.size());
  EXPECT_GE(dev.stats().max_page_wear, 5u);
}

TEST(NvmDevice, StatsCountBytes) {
  NvmDevice dev(small_config());
  std::vector<std::byte> buf(10 * KiB, std::byte{4});
  dev.write(0, buf.data(), buf.size());
  dev.read(0, buf.data(), buf.size());
  const NvmDeviceStats s = dev.stats();
  EXPECT_EQ(s.bytes_written, 10 * KiB);
  EXPECT_EQ(s.bytes_read, 10 * KiB);
  EXPECT_EQ(s.write_calls, 1u);
  EXPECT_EQ(s.read_calls, 1u);
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64());
  return out;
}

// Sorted, disjoint ranges of a 64 KiB span: one crosses a page boundary,
// two share a page, one ends the span.
const std::vector<DirtyRange> kSpanRanges = {
    {100, 50}, {4000, 200}, {4300, 10}, {20000, 5000}, {65000, 536}};
constexpr std::size_t kSpan = 64 * KiB;
constexpr std::size_t kSpanOff = 8 * KiB;

TEST(NvmDevice, VectoredWriteMatchesOneWritePerRange) {
  NvmDevice vec(small_config());
  NvmDevice each(small_config());
  const std::vector<std::byte> old_bytes = random_bytes(kSpan, 11);
  std::memcpy(vec.data() + kSpanOff, old_bytes.data(), kSpan);
  std::memcpy(each.data() + kSpanOff, old_bytes.data(), kSpan);
  const std::vector<std::byte> src = random_bytes(kSpan, 12);

  std::uint64_t vec_crc = crc64_init();
  vec.write_ranges(kSpanOff, src.data(), kSpan, kSpanRanges, nullptr,
                   &vec_crc);

  // The range commit before vectored writes: a gap CRC from the arena,
  // then one write per range.
  std::uint64_t each_crc = crc64_init();
  std::uint64_t pos = 0;
  for (const DirtyRange& r : kSpanRanges) {
    each_crc = crc64_update(each_crc, each.data() + kSpanOff + pos,
                            r.off - pos);
    each.write(kSpanOff + r.off, src.data() + r.off, r.len, nullptr,
               &each_crc);
    pos = r.end();
  }
  each_crc =
      crc64_update(each_crc, each.data() + kSpanOff + pos, kSpan - pos);

  EXPECT_EQ(0, std::memcmp(vec.data(), each.data(), vec.capacity()));
  EXPECT_EQ(vec_crc, each_crc);
  EXPECT_EQ(crc64_final(vec_crc), crc64(vec.data() + kSpanOff, kSpan));
  EXPECT_EQ(vec.unflushed_page_count(), each.unflushed_page_count());
  for (std::size_t p = 0; p < vec.page_count(); ++p) {
    ASSERT_EQ(vec.page_flushed(p), each.page_flushed(p)) << "page " << p;
  }
  const NvmDeviceStats v = vec.stats();
  const NvmDeviceStats e = each.stats();
  // Ranges 2 and 3 share a page, which each write wears once.
  EXPECT_EQ(v.max_page_wear, 2u);
  EXPECT_EQ(v.max_page_wear, e.max_page_wear);
  EXPECT_EQ(v.bytes_written, e.bytes_written);
  EXPECT_EQ(v.bytes_written, 50u + 200 + 10 + 5000 + 536);
  EXPECT_EQ(v.write_calls, 1u);
  EXPECT_EQ(e.write_calls, kSpanRanges.size());
}

TEST(NvmDevice, VectoredWriteWithNoRangesOnlyFoldsTheSpan) {
  NvmDevice dev(small_config());
  const std::vector<std::byte> old_bytes = random_bytes(kSpan, 13);
  std::memcpy(dev.data() + kSpanOff, old_bytes.data(), kSpan);
  const std::vector<std::byte> src = random_bytes(kSpan, 14);
  std::uint64_t crc = crc64_init();
  dev.write_ranges(kSpanOff, src.data(), kSpan, {}, nullptr, &crc);
  EXPECT_EQ(crc64_final(crc), crc64(old_bytes.data(), kSpan));
  EXPECT_EQ(0, std::memcmp(dev.data() + kSpanOff, old_bytes.data(), kSpan));
  EXPECT_EQ(dev.unflushed_page_count(), 0u);
  EXPECT_EQ(dev.stats().bytes_written, 0u);
  EXPECT_EQ(dev.stats().max_page_wear, 0u);
  EXPECT_EQ(dev.stats().write_calls, 0u);
}

TEST(NvmDevice, VectoredWriteRejectsBadRangesBeforeAnyByteMoves) {
  NvmDevice dev(small_config());
  const std::vector<std::byte> before(dev.data(),
                                      dev.data() + dev.capacity());
  const std::vector<std::byte> src = random_bytes(kSpan, 15);
  const std::vector<std::vector<DirtyRange>> bad = {
      {{4000, 200}, {100, 50}},         // unsorted
      {{100, 50}, {120, 10}},           // overlapping
      {{100, 50}, {kSpan - 8, 16}},     // past the span's end
      {{kSpan + 1, 0}},                 // starts past the span
      {{100, ~std::uint64_t{0} - 50}},  // length wraps around
  };
  for (const auto& ranges : bad) {
    std::uint64_t crc = crc64_init();
    EXPECT_THROW(dev.write_ranges(kSpanOff, src.data(), kSpan, ranges,
                                  nullptr, &crc),
                 NvmcpError);
    EXPECT_EQ(crc, crc64_init());
  }
  // A span past the arena throws too, whatever its ranges.
  EXPECT_THROW(dev.write_ranges(dev.capacity() - 4 * KiB, src.data(), kSpan,
                                kSpanRanges),
               NvmcpError);
  EXPECT_EQ(0, std::memcmp(dev.data(), before.data(), before.size()));
  EXPECT_EQ(dev.unflushed_page_count(), 0u);
  EXPECT_EQ(dev.stats().bytes_written, 0u);
  EXPECT_EQ(dev.stats().write_calls, 0u);
}

TEST(NvmDevice, ThrottledVectoredWriteIsOneLatencyPlusBytesOverRate) {
  // Eight 40 KiB ranges spread over a 1 MiB span: 320 KiB moved, so the
  // copier's 256 KiB blocks cross range boundaries.
  const double rate = 256.0 * MiB;
  const double latency = 5e-3;
  NvmConfig cfg = small_config(/*throttle=*/true);
  cfg.spec.write_bandwidth = rate;
  cfg.spec.page_write_latency = latency;
  NvmDevice dev(cfg);
  std::vector<DirtyRange> ranges;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ranges.push_back({i * 128 * KiB, 40 * KiB});
  }
  const std::vector<std::byte> src = random_bytes(1 * MiB, 16);
  const double bytes = 8 * 40.0 * KiB;

  // Modeled time: what the request reserves on the device limiter's
  // timeline (bytes / rate), plus page_write_latency per counted call.
  auto modeled = [&](auto&& write) {
    const double r0 = dev.write_limiter().reserved_seconds();
    const std::uint64_t c0 = dev.stats().write_calls;
    const double secs = write();
    const double model = dev.write_limiter().reserved_seconds() - r0 +
                         static_cast<double>(dev.stats().write_calls - c0) *
                             latency;
    // Wall clock bounds the write from below only: a sleep can overshoot
    // its deadline on a loaded host, never undershoot it.
    EXPECT_GE(secs, 0.99 * model);
    return model;
  };
  const double vectored = modeled([&] {
    return dev.write_ranges(0, src.data(), src.size(), ranges);
  });
  EXPECT_NEAR(vectored, bytes / rate + latency, 1e-9);
  EXPECT_EQ(dev.stats().write_calls, 1u);

  // The same bytes as one write per range reserve the same bandwidth time
  // but pay the latency eight times.
  const double per_range = modeled([&] {
    double secs = 0;
    for (const DirtyRange& r : ranges) {
      secs += dev.write(r.off, src.data() + r.off, r.len);
    }
    return secs;
  });
  EXPECT_NEAR(per_range, bytes / rate + 8 * latency, 1e-9);
}

TEST(NvmDevice, FlushClearsUnflushedSet) {
  NvmDevice dev(small_config());
  std::vector<std::byte> src(2 * kNvmPageSize, std::byte{5});
  dev.write(0, src.data(), src.size());
  EXPECT_EQ(dev.unflushed_page_count(), 2u);
  dev.flush(0, src.size());
  dev.fence();
  EXPECT_EQ(dev.unflushed_page_count(), 0u);
}

TEST(NvmDevice, CrashScramblesOnlyUnflushedPages) {
  NvmDevice dev(small_config());
  std::vector<std::byte> a(kNvmPageSize, std::byte{0xAA});
  std::vector<std::byte> b(kNvmPageSize, std::byte{0xBB});
  dev.write(0, a.data(), a.size());
  dev.flush(0, a.size());
  dev.write(kNvmPageSize, b.data(), b.size());  // not flushed

  Rng rng(3);
  dev.simulate_crash(rng);

  EXPECT_EQ(0, std::memcmp(dev.data(), a.data(), a.size()))
      << "flushed page must survive the crash";
  EXPECT_NE(0, std::memcmp(dev.data() + kNvmPageSize, b.data(), b.size()))
      << "unflushed page must be scrambled";
  EXPECT_EQ(dev.unflushed_page_count(), 0u);
}

TEST(NvmDevice, CrashReportsScrambledPageCount) {
  NvmDevice dev(small_config());
  std::vector<std::byte> buf(3 * kNvmPageSize, std::byte{0xCC});
  dev.write(0, buf.data(), buf.size());  // three unflushed pages
  const std::uint64_t before = telemetry::MetricRegistry::global()
                                   .counter("nvm.crash.pages_scrambled")
                                   .value();
  Rng rng(7);
  EXPECT_EQ(dev.simulate_crash(rng), 3u);
  EXPECT_EQ(telemetry::MetricRegistry::global()
                .counter("nvm.crash.pages_scrambled")
                .value(),
            before + 3);
  // A second crash with nothing unflushed scrambles nothing.
  EXPECT_EQ(dev.simulate_crash(rng), 0u);
}

TEST(NvmDevice, RootOffsetPersistsInHeader) {
  NvmDevice dev(small_config());
  EXPECT_EQ(dev.root(), 0u);
  dev.set_root(4096);
  EXPECT_EQ(dev.root(), 4096u);
}

class NvmDeviceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("nvmcp_dev_test_" + std::to_string(::getpid()) + ".nvm");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(NvmDeviceFileTest, ContentsSurviveReopen) {
  const char msg[] = "persists across sessions";
  {
    NvmConfig cfg = small_config();
    cfg.backing_file = path_.string();
    NvmDevice dev(cfg);
    EXPECT_FALSE(dev.reopened());
    dev.write(0, msg, sizeof(msg));
    dev.flush(0, sizeof(msg));
    dev.set_root(kNvmPageSize);
  }
  {
    NvmConfig cfg = small_config();
    cfg.backing_file = path_.string();
    NvmDevice dev(cfg);
    EXPECT_TRUE(dev.reopened());
    EXPECT_EQ(dev.root(), kNvmPageSize);
    EXPECT_EQ(0, std::memcmp(dev.data(), msg, sizeof(msg)));
  }
}

TEST_F(NvmDeviceFileTest, CapacityMismatchMeansFreshDevice) {
  {
    NvmConfig cfg = small_config();
    cfg.backing_file = path_.string();
    NvmDevice dev(cfg);
  }
  NvmConfig cfg = small_config();
  cfg.capacity = 8 * MiB;  // different size: treat as a new device
  cfg.backing_file = path_.string();
  NvmDevice dev(cfg);
  EXPECT_FALSE(dev.reopened());
}

// Parameterized sweep: throttled writes should track the configured
// bandwidth across two orders of magnitude.
class DeviceBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeviceBandwidthSweep, TimingTracksConfiguredRate) {
  NvmConfig cfg = small_config(/*throttle=*/true);
  cfg.spec.write_bandwidth = GetParam();
  cfg.spec.page_write_latency = 0;
  NvmDevice dev(cfg);
  const std::size_t n = 1 * MiB;
  std::vector<std::byte> src(n, std::byte{6});
  const double expected = static_cast<double>(n) / GetParam();
  // Wall clock bounds the write from below only: a sleep can overshoot
  // its deadline on a loaded host, never undershoot it.
  EXPECT_GT(dev.write(0, src.data(), n), 0.6 * expected);

  // Modeled time: the deadlines the limiter hands out for the same bytes,
  // in the copier's blocks, span n / rate. A one-second lead reservation
  // keeps the timeline ahead of now, so no block restarts at an idle now.
  BandwidthLimiter limiter(GetParam());
  const TimePoint start =
      limiter.acquire(static_cast<std::size_t>(GetParam()));
  TimePoint end = start;
  for (std::size_t off = 0; off < n; off += ThrottledCopier::kBlockSize) {
    end = limiter.acquire(std::min(ThrottledCopier::kBlockSize, n - off));
  }
  const double span = std::chrono::duration<double>(end - start).count();
  EXPECT_NEAR(span, expected, 0.01 * expected);
}

INSTANTIATE_TEST_SUITE_P(Rates, DeviceBandwidthSweep,
                         ::testing::Values(32.0 * MiB, 128.0 * MiB,
                                           512.0 * MiB, 2048.0 * MiB));

}  // namespace
}  // namespace nvmcp
