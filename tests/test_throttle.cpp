// BandwidthLimiter / ThrottledCopier: rate accuracy, fair sharing between
// concurrent users, and pipelined double-limiter behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/units.hpp"
#include "nvm/throttle.hpp"

namespace nvmcp {
namespace {

TEST(BandwidthLimiter, UnlimitedIsImmediate) {
  BandwidthLimiter lim(0.0);
  EXPECT_TRUE(lim.unlimited());
  const TimePoint before = Clock::now();
  const TimePoint deadline = lim.acquire(100 * MiB);
  EXPECT_LE(deadline, before + std::chrono::milliseconds(1));
}

TEST(BandwidthLimiter, DeadlineMatchesRate) {
  BandwidthLimiter lim(10.0 * MiB);
  const TimePoint start = Clock::now();
  const TimePoint deadline = lim.acquire(1 * MiB);
  const double dt = std::chrono::duration<double>(deadline - start).count();
  EXPECT_NEAR(dt, 0.1, 0.02);
}

TEST(BandwidthLimiter, SequentialAcquiresAccumulate) {
  BandwidthLimiter lim(10.0 * MiB);
  const TimePoint start = Clock::now();
  lim.acquire(1 * MiB);
  const TimePoint second = lim.acquire(1 * MiB);
  const double dt = std::chrono::duration<double>(second - start).count();
  EXPECT_NEAR(dt, 0.2, 0.03);
}

TEST(BandwidthLimiter, NoBurstCreditAfterIdle) {
  BandwidthLimiter lim(100.0 * MiB);
  sleep_until(lim.acquire(1 * MiB));
  precise_sleep(0.05);  // idle time must not bank credit
  const TimePoint before = Clock::now();
  const TimePoint deadline = lim.acquire(1 * MiB);
  const double dt = std::chrono::duration<double>(deadline - before).count();
  EXPECT_GT(dt, 0.005);
}

TEST(BandwidthLimiter, SetRateTakesEffect) {
  BandwidthLimiter lim(1.0 * MiB);
  lim.set_rate(100.0 * MiB);
  EXPECT_EQ(lim.rate(), 100.0 * MiB);
}

TEST(BandwidthLimiter, SetRateRebasesQueuedBacklog) {
  // Reserve 10 MiB at 1 MiB/s: the timeline now extends ~10 s into the
  // future. Raising the rate to 100 MiB/s must re-time that backlog
  // (10 MiB at 100 MiB/s ~ 0.1 s), not leave the old 10 s deadline in
  // place for already-queued work.
  BandwidthLimiter lim(1.0 * MiB);
  lim.acquire(10 * MiB);
  lim.set_rate(100.0 * MiB);
  const TimePoint now = Clock::now();
  const TimePoint deadline = lim.acquire(1);
  const double dt = std::chrono::duration<double>(deadline - now).count();
  EXPECT_GT(dt, 0.05);  // backlog was carried over, not dropped...
  EXPECT_LT(dt, 0.5);   // ...but re-timed at the new rate, not the old.
}

TEST(BandwidthLimiter, SetRateToUnlimitedClearsBacklog) {
  BandwidthLimiter lim(1.0 * MiB);
  lim.acquire(10 * MiB);
  lim.set_rate(0.0);
  const TimePoint before = Clock::now();
  EXPECT_LE(lim.acquire(100 * MiB), before + std::chrono::milliseconds(1));
}

TEST(BandwidthLimiter, SetRateFromUnlimitedStartsFresh) {
  BandwidthLimiter lim(0.0);
  lim.acquire(100 * MiB);  // free while unlimited; must not become debt
  lim.set_rate(100.0 * MiB);
  const TimePoint now = Clock::now();
  const TimePoint deadline = lim.acquire(1 * MiB);
  const double dt = std::chrono::duration<double>(deadline - now).count();
  EXPECT_NEAR(dt, 0.01, 0.01);
}

TEST(ThrottledCopier, CopiesDataCorrectly) {
  std::vector<std::byte> src(3 * MiB), dst(3 * MiB);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 31);
  }
  BandwidthLimiter lim(0.0);
  ThrottledCopier::copy(dst.data(), src.data(), src.size(), &lim);
  EXPECT_EQ(0, std::memcmp(src.data(), dst.data(), src.size()));
}

TEST(ThrottledCopier, TimingMatchesRate) {
  std::vector<std::byte> src(2 * MiB), dst(2 * MiB);
  BandwidthLimiter lim(20.0 * MiB);
  const double secs =
      ThrottledCopier::copy(dst.data(), src.data(), src.size(), &lim);
  EXPECT_NEAR(secs, 0.1, 0.04);
}

TEST(ThrottledCopier, TwoLimitersSlowestWins) {
  std::vector<std::byte> src(1 * MiB), dst(1 * MiB);
  BandwidthLimiter fast(1000.0 * MiB);
  BandwidthLimiter slow(10.0 * MiB);
  const double secs = ThrottledCopier::copy(dst.data(), src.data(),
                                            src.size(), &fast, &slow);
  EXPECT_NEAR(secs, 0.1, 0.04);
}

TEST(ThrottledCopier, SharedLimiterSplitsBandwidth) {
  // Two threads sharing one 20 MiB/s pipe moving 1 MiB each should take
  // about 0.1 s total (aggregate 2 MiB at 20 MiB/s), not 0.05 s.
  BandwidthLimiter shared(20.0 * MiB);
  std::vector<std::byte> src(1 * MiB), d1(1 * MiB), d2(1 * MiB);
  const Stopwatch sw;
  std::thread t1([&] {
    ThrottledCopier::copy(d1.data(), src.data(), src.size(), &shared);
  });
  std::thread t2([&] {
    ThrottledCopier::copy(d2.data(), src.data(), src.size(), &shared);
  });
  t1.join();
  t2.join();
  const double total = sw.elapsed();
  EXPECT_GT(total, 0.08);
  EXPECT_LT(total, 0.25);
}

TEST(ThrottledCopier, ZeroBytesIsFree) {
  BandwidthLimiter lim(1.0);  // absurdly slow
  std::byte b{};
  const double secs = ThrottledCopier::copy(&b, &b, 0, &lim);
  EXPECT_LT(secs, 0.01);
}

}  // namespace
}  // namespace nvmcp
