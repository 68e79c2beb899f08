// Interconnect model: transfer timing, bandwidth sharing between traffic
// classes (the contention behind remote-checkpoint "noise"), and the
// utilization timeline used for peak-usage measurements (Fig 10).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/units.hpp"
#include "net/interconnect.hpp"

namespace nvmcp::net {
namespace {

TEST(Interconnect, TransferTimingMatchesBandwidth) {
  Interconnect link(20.0 * MiB, 0.05);
  const double secs = link.transfer(2 * MiB, TrafficClass::kApplication);
  EXPECT_NEAR(secs, 0.1, 0.04);
}

TEST(Interconnect, StatsSplitByClass) {
  Interconnect link(1000.0 * MiB, 0.05);
  link.transfer(1 * MiB, TrafficClass::kApplication);
  link.transfer(3 * MiB, TrafficClass::kCheckpoint);
  const LinkStats s = link.stats();
  EXPECT_EQ(s.app_bytes, 1 * MiB);
  EXPECT_EQ(s.checkpoint_bytes, 3 * MiB);
  EXPECT_GT(s.checkpoint_seconds, 0.0);
}

// A mover runs once per block, in order, and is handed the link's
// limiter to pace its move; the link records the moved bytes.
TEST(Interconnect, MoverRunsOncePerBlock) {
  Interconnect link(0.5e9, 0.05);
  const std::size_t n = 2 * ThrottledCopier::kBlockSize + 100;
  std::vector<std::byte> src(n, std::byte{0x3c}), dst(n);
  std::vector<std::size_t> blocks;
  link.transfer(n, TrafficClass::kCheckpoint,
                [&](std::size_t off, std::size_t len, BandwidthLimiter& l) {
                  blocks.push_back(len);
                  ThrottledCopier::copy(dst.data() + off, src.data() + off,
                                        len, &l);
                });
  EXPECT_EQ(blocks, (std::vector<std::size_t>{ThrottledCopier::kBlockSize,
                                              ThrottledCopier::kBlockSize,
                                              100}));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(link.stats().checkpoint_bytes, n);
}

TEST(Interconnect, ConcurrentFlowsShareBandwidth) {
  Interconnect link(20.0 * MiB, 0.05);
  const Stopwatch sw;
  std::thread app([&] { link.transfer(1 * MiB, TrafficClass::kApplication); });
  std::thread ckp([&] { link.transfer(1 * MiB, TrafficClass::kCheckpoint); });
  app.join();
  ckp.join();
  // 2 MiB total through a 20 MiB/s pipe: ~0.1 s, not ~0.05 s.
  EXPECT_GT(sw.elapsed(), 0.08);
}

// Application traffic has strict priority: once an application transfer
// starts, a checkpoint flow finishes at most the one block it has on the
// link and then waits for the application transfer to end.
TEST(Interconnect, ApplicationTrafficPreemptsQueuedCheckpointBlocks) {
  Interconnect link(10.0 * MiB, 0.05);
  std::thread ckpt([&] { link.transfer(4 * MiB, TrafficClass::kCheckpoint); });
  precise_sleep(0.05);
  const std::uint64_t before = link.stats().checkpoint_bytes;
  link.transfer(1 * MiB, TrafficClass::kApplication);
  const std::uint64_t during = link.stats().checkpoint_bytes - before;
  ckpt.join();
  EXPECT_LE(during, ThrottledCopier::kBlockSize);
  EXPECT_EQ(link.stats().checkpoint_bytes, 4 * MiB);
}

TEST(Interconnect, TimelineSpreadsLongTransfers) {
  Interconnect link(10.0 * MiB, 0.05);
  link.transfer(2 * MiB, TrafficClass::kCheckpoint);  // ~0.2 s
  const TimeSeries& tl = link.checkpoint_timeline();
  // Bytes should appear in several 50 ms buckets, not one spike.
  int nonzero = 0;
  for (std::size_t i = 0; i < tl.size(); ++i) nonzero += tl.value(i) > 0;
  EXPECT_GE(nonzero, 3);
  EXPECT_NEAR(tl.total(), 2.0 * MiB, 1.0);
}

TEST(Interconnect, PeakRateBoundedByLinkSpeed) {
  Interconnect link(10.0 * MiB, 0.05);
  link.transfer(4 * MiB, TrafficClass::kCheckpoint);
  EXPECT_LE(link.peak_checkpoint_rate(), 10.5 * MiB);
  EXPECT_GT(link.peak_checkpoint_rate(), 1.0 * MiB);
}

TEST(Interconnect, ResetAccountingClears) {
  Interconnect link(100.0 * MiB, 0.05);
  link.transfer(1 * MiB, TrafficClass::kCheckpoint);
  link.reset_accounting();
  EXPECT_EQ(link.stats().checkpoint_bytes, 0u);
  EXPECT_EQ(link.checkpoint_timeline().total(), 0.0);
}

TEST(Interconnect, SetBandwidthTakesEffect) {
  Interconnect link(1.0 * MiB, 0.05);
  link.set_bandwidth(500.0 * MiB);
  const double secs = link.transfer(5 * MiB, TrafficClass::kApplication);
  EXPECT_LT(secs, 0.1);
}

}  // namespace
}  // namespace nvmcp::net
