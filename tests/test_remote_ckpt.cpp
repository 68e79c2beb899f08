// RemoteCheckpointer: eager pre-copy of committed chunks, coordination
// rounds producing a consistent remote cut, helper metrics, retry/degraded
// behaviour under injected transport faults, and multi-rank coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/remote.hpp"
#include "fault/injector.hpp"

namespace nvmcp::core {
namespace {

std::uint64_t counter(RemoteCheckpointer& helper, const char* name) {
  return helper.metrics().counter(name).value();
}

class RemoteCkptTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 2;

  RemoteCkptTest() : link_(2.0e9, 0.05) {
    for (int r = 0; r < kRanks; ++r) {
      NvmConfig cfg;
      cfg.capacity = 32 * MiB;
      cfg.throttle = false;
      devices_.push_back(std::make_unique<NvmDevice>(cfg));
      containers_.push_back(std::make_unique<vmem::Container>(*devices_.back()));
      allocators_.push_back(
          std::make_unique<alloc::ChunkAllocator>(*containers_.back()));
      CheckpointConfig ccfg;
      ccfg.rank = static_cast<std::uint32_t>(r);
      ccfg.local_policy = PrecopyPolicy::kNone;
      managers_.push_back(std::make_unique<CheckpointManager>(
          *allocators_.back(), ccfg));
    }
    NvmConfig scfg;
    scfg.capacity = 64 * MiB;
    scfg.throttle = false;
    store_ = std::make_unique<net::RemoteStore>(scfg);
    remote_mem_ = std::make_unique<net::RemoteMemory>(link_, *store_);
  }

  RemoteCheckpointer make_helper(RemoteConfig rcfg) {
    std::vector<CheckpointManager*> mgrs;
    for (auto& m : managers_) mgrs.push_back(m.get());
    return RemoteCheckpointer(mgrs, *remote_mem_, rcfg);
  }

  void fill(alloc::Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    auto* p = static_cast<std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p + i, &v, 8);
    }
  }

  net::Interconnect link_;
  std::vector<std::unique_ptr<NvmDevice>> devices_;
  std::vector<std::unique_ptr<vmem::Container>> containers_;
  std::vector<std::unique_ptr<alloc::ChunkAllocator>> allocators_;
  std::vector<std::unique_ptr<CheckpointManager>> managers_;
  std::unique_ptr<net::RemoteStore> store_;
  std::unique_ptr<net::RemoteMemory> remote_mem_;
};

TEST_F(RemoteCkptTest, CoordinationShipsAllCommittedChunks) {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kNone;
  auto helper = make_helper(rcfg);

  std::vector<alloc::Chunk*> chunks;
  for (int r = 0; r < kRanks; ++r) {
    alloc::Chunk* c = allocators_[static_cast<std::size_t>(r)]->nvalloc(
        "data", 128 * KiB, true);
    fill(*c, static_cast<std::uint64_t>(r) + 1);
    managers_[static_cast<std::size_t>(r)]->nvchkptall();
    chunks.push_back(c);
  }

  helper.coordinate_now();
  EXPECT_EQ(store_->stored_chunks(), 2u);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(store_->committed_epoch(static_cast<std::uint32_t>(r),
                                      chunks[static_cast<std::size_t>(r)]->id()),
              1u);
  }
  EXPECT_EQ(counter(helper, "remote.coordinations"), 1u);
  EXPECT_GE(counter(helper, "remote.bytes_sent"), 2 * 128 * KiB);
  EXPECT_EQ(counter(helper, "remote.precopy_puts"), 0u);
  EXPECT_GT(counter(helper, "remote.coordinated_puts"), 0u);
  // No local commit landed mid-round: phase 1 shipped everything, so the
  // commit pass re-put nothing while holding the commit mutexes.
  EXPECT_EQ(helper.metrics().counter("remote.phase2_resends").value(), 0u);
  const telemetry::HistogramMetric* hold =
      helper.metrics().find_histogram("remote.phase2_hold_seconds");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 1u);
}

TEST_F(RemoteCkptTest, UncommittedChunksAreNotShipped) {
  RemoteConfig rcfg;
  auto helper = make_helper(rcfg);
  allocators_[0]->nvalloc("never_committed", 64 * KiB, true);
  helper.coordinate_now();
  EXPECT_EQ(store_->stored_chunks(), 0u);
}

TEST_F(RemoteCkptTest, RemoteRestoreMatchesLocalCommit) {
  RemoteConfig rcfg;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("state", 256 * KiB, true);
  fill(*c, 42);
  managers_[0]->nvchkptall();
  helper.coordinate_now();

  // Wipe DRAM and both local slots; restore must come from remote.
  fill(*c, 99);
  const auto& rec = c->record();
  devices_[0]->data()[rec.slot_off[0] + 5] ^= std::byte{0xFF};
  devices_[0]->data()[rec.slot_off[1] + 5] ^= std::byte{0xFF};
  EXPECT_EQ(RestartCoordinator(*managers_[0], remote_mem_.get())
                .restart_after(FailureKind::kSoft)
                .status,
            RestoreStatus::kOkFromRemote);

  Rng rng(42);
  const auto* p = static_cast<const std::byte*>(c->data());
  bool match = true;
  for (std::size_t i = 0; i + 8 <= c->size() && match; i += 8) {
    const std::uint64_t v = rng.next_u64();
    match = std::memcmp(p + i, &v, 8) == 0;
  }
  EXPECT_TRUE(match);
}

TEST_F(RemoteCkptTest, SecondCoordinationSkipsUnchangedChunks) {
  RemoteConfig rcfg;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("stable", 128 * KiB, true);
  fill(*c, 1);
  managers_[0]->nvchkptall();
  helper.coordinate_now();
  const std::uint64_t sent_before = counter(helper, "remote.bytes_sent");
  helper.coordinate_now();  // nothing changed locally
  EXPECT_EQ(counter(helper, "remote.bytes_sent"), sent_before);
}

TEST_F(RemoteCkptTest, NewLocalEpochIsReshippedAndRecommitted) {
  RemoteConfig rcfg;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("evolving", 64 * KiB, true);
  fill(*c, 1);
  managers_[0]->nvchkptall();
  helper.coordinate_now();
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 1u);
  fill(*c, 2);
  managers_[0]->nvchkptall();
  helper.coordinate_now();
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 2u);
}

TEST_F(RemoteCkptTest, BackgroundHelperPrecopiesEagerly) {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kCpc;  // eager, no delay
  rcfg.interval = 30.0;               // far away: only pre-copy runs
  rcfg.scan_period = 1e-3;
  auto helper = make_helper(rcfg);

  alloc::Chunk* c = allocators_[0]->nvalloc("eager", 128 * KiB, true);
  fill(*c, 5);
  managers_[0]->nvchkptall();

  helper.start();
  const Stopwatch sw;
  while (counter(helper, "remote.precopy_puts") == 0 && sw.elapsed() < 2.0) {
    precise_sleep(1e-3);
  }
  helper.stop();
  EXPECT_GT(counter(helper, "remote.precopy_puts"), 0u);
  // Pre-copied but not committed: a coordination is what seals the cut.
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 0u);
}

TEST_F(RemoteCkptTest, DelayedPolicyWaitsForGate) {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kDcpcp;
  rcfg.interval = 10.0;
  rcfg.delay_fraction = 0.5;  // gate opens after 5 s: far beyond this test
  rcfg.scan_period = 1e-3;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("late", 64 * KiB, true);
  fill(*c, 5);
  managers_[0]->nvchkptall();
  helper.start();
  precise_sleep(0.05);
  helper.stop();
  EXPECT_EQ(counter(helper, "remote.precopy_puts"), 0u);
}

TEST_F(RemoteCkptTest, HelperUtilizationTracked) {
  RemoteConfig rcfg;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("util", 512 * KiB, true);
  fill(*c, 5);
  managers_[0]->nvchkptall();
  helper.start();
  precise_sleep(0.02);
  helper.coordinate_now();
  helper.stop();
  const double busy = helper.metrics().gauge("remote.busy_seconds").value();
  const double wall = helper.metrics().gauge("remote.wall_seconds").value();
  EXPECT_GT(busy, 0.0);
  EXPECT_GT(wall, 0.0);  // set by stop()
  EXPECT_LE(busy / wall, 1.0 + 1e-9);
}

// Pacing meters only unattended helper work. These tests set a pace that
// spreads the 512 KiB learning round over 24 s (0.8 x a 30 s interval),
// then leave an eager pre-copy send of the chunk's next epoch waiting
// ~24 s for its credit under send_mu_, and commit the chunk again while
// that send is in flight.
class PacedPrecopyTest : public RemoteCkptTest {
 protected:
  PacedPrecopyTest()
      : helper_({managers_[0].get()}, *remote_mem_, paced_config()) {
    big_ = allocators_[0]->nvalloc("paced", 512 * KiB, true);
    fill(*big_, 1);
    managers_[0]->nvchkptall();  // epoch 1
    helper_.coordinate_now();    // learning round: sets the pace
    fill(*big_, 3);
    managers_[0]->nvchkptall();  // epoch 2
    helper_.start();  // its eager pre-copy waits for pace credit
    precise_sleep(0.05);
    fill(*big_, 4);
    managers_[0]->nvchkptall();  // epoch 3, while epoch 2's send waits
  }

  static RemoteConfig paced_config() {
    RemoteConfig rcfg;
    rcfg.policy = PrecopyPolicy::kCpc;
    rcfg.interval = 30.0;
    rcfg.scan_period = 1e-3;
    return rcfg;
  }

  RemoteCheckpointer helper_;
  alloc::Chunk* big_ = nullptr;
};

// A requested cut ships at link speed: the eager send asleep on pace
// credit steps aside instead of holding the helper for ~24 s, and the
// cut's own residual is not paced.
TEST_F(PacedPrecopyTest, CutDoesNotWaitForPacedPrecopy) {
  const Stopwatch sw;
  const CoordinationOutcome out = helper_.coordinate_now();
  const double secs = sw.elapsed();
  EXPECT_LT(secs, 1.0);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(store_->committed_epoch(0, big_->id()), 3u);
  EXPECT_GE(helper_.metrics().counter("remote.deferred_sends").value(), 1u);
  helper_.stop();
}

// stop() ends a pace wait in flight instead of sleeping out its credit.
TEST_F(PacedPrecopyTest, StopDoesNotWaitForPaceCredit) {
  const Stopwatch sw;
  helper_.stop();
  EXPECT_LT(sw.elapsed(), 1.0);
}

// The application's allocator calls never wait for the helper's pace
// wait: a send holds the allocator only while it reads the payload. A
// call that does wait returns at stop(), so the test fails, not hangs.
TEST_F(PacedPrecopyTest, AllocatorCallsDoNotWaitForAPaceWait) {
  std::atomic<bool> done{false};
  double secs = 0;
  std::thread app([&] {
    const Stopwatch sw;
    alloc::Chunk* c = allocators_[0]->nvalloc("app", 64 * KiB, true);
    allocators_[0]->nvdelete(c->id());
    secs = sw.elapsed();
    done.store(true);
  });
  const Stopwatch wait;
  while (!done.load() && wait.elapsed() < 2.0) precise_sleep(1e-3);
  helper_.stop();
  app.join();
  EXPECT_LT(secs, 1.0);
}

// A RemoteConfig with a small, deterministic retry policy for fault tests.
RemoteConfig fault_test_config() {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kNone;
  rcfg.retry_from_env = false;
  rcfg.retry.max_attempts = 2;
  rcfg.retry.phase2_attempts = 1;
  rcfg.retry.backoff_base = 1e-4;
  rcfg.retry.backoff_max = 1e-3;
  rcfg.retry.probation_puts = 1;
  return rcfg;
}

// The tentpole acceptance scenario, and the regression for the old
// epoch-as-success-flag bug: a put dropped by an outage used to still
// record its epoch in the sent bookkeeping, so later rounds skipped the
// chunk forever and the remote cut stayed silently stale.
TEST_F(RemoteCkptTest, OutageCoordinationIsDegradedThenConverges) {
  fault::FaultInjector inj;
  inj.arm(0x1dea);
  store_->set_fault_injector(&inj);
  auto helper = make_helper(fault_test_config());
  helper.set_fault_injector(&inj);

  std::vector<alloc::Chunk*> chunks;
  for (int r = 0; r < kRanks; ++r) {
    alloc::Chunk* c = allocators_[static_cast<std::size_t>(r)]->nvalloc(
        "data", 64 * KiB, true);
    fill(*c, static_cast<std::uint64_t>(r) + 1);
    managers_[static_cast<std::size_t>(r)]->nvchkptall();
    chunks.push_back(c);
  }
  const CoordinationOutcome first = helper.coordinate_now();
  EXPECT_FALSE(first.degraded);
  EXPECT_EQ(first.stale_chunks, 0);

  // Epoch 2 commits locally while the link is fully out: the round must
  // complete *degraded*, with every chunk reported remote-stale and the
  // store still holding epoch 1 -- not pretend the cut advanced.
  for (int r = 0; r < kRanks; ++r) {
    fill(*chunks[static_cast<std::size_t>(r)],
         static_cast<std::uint64_t>(r) + 10);
    managers_[static_cast<std::size_t>(r)]->nvchkptall();
  }
  inj.set_outage(true);
  const CoordinationOutcome bad = helper.coordinate_now();
  EXPECT_TRUE(bad.degraded);
  EXPECT_EQ(bad.stale_chunks, kRanks);
  EXPECT_GT(bad.failed_sends, 0);
  EXPECT_GT(bad.retries, 0);
  EXPECT_EQ(helper.stale().size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(store_->committed_epoch(static_cast<std::uint32_t>(r),
                                      chunks[static_cast<std::size_t>(r)]->id()),
              1u);
    EXPECT_NE(helper.health(static_cast<std::size_t>(r)),
              RemoteHealth::kHealthy);
  }
  EXPECT_GT(helper.metrics().counter("remote.degraded_rounds").value(), 0u);

  // Outage clears: the next coordination re-ships the stale chunks and
  // converges the remote epoch everywhere; health recovers via probation.
  inj.set_outage(false);
  const CoordinationOutcome good = helper.coordinate_now();
  EXPECT_FALSE(good.degraded);
  EXPECT_EQ(good.stale_chunks, 0);
  EXPECT_TRUE(helper.stale().empty());
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(store_->committed_epoch(static_cast<std::uint32_t>(r),
                                      chunks[static_cast<std::size_t>(r)]->id()),
              2u);
    EXPECT_EQ(helper.health(static_cast<std::size_t>(r)),
              RemoteHealth::kHealthy);
  }
}

TEST_F(RemoteCkptTest, StalledHelperRoundIsDegradedThenConverges) {
  fault::FaultInjector inj;
  inj.arm(0x57a11);
  store_->set_fault_injector(&inj);
  auto helper = make_helper(fault_test_config());
  helper.set_fault_injector(&inj);

  alloc::Chunk* c = allocators_[0]->nvalloc("stalled", 64 * KiB, true);
  fill(*c, 7);
  managers_[0]->nvchkptall();

  inj.set_helper_stalled(true);
  const CoordinationOutcome bad = helper.coordinate_now();
  EXPECT_TRUE(bad.degraded);
  EXPECT_EQ(bad.stale_chunks, 1);
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 0u);
  // Phase 1 never delivered the chunk, so the commit pass re-put it.
  EXPECT_EQ(helper.metrics().counter("remote.phase2_resends").value(), 1u);

  inj.set_helper_stalled(false);
  const CoordinationOutcome good = helper.coordinate_now();
  EXPECT_FALSE(good.degraded);
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 1u);
}

TEST_F(RemoteCkptTest, KilledHelperReportsDeadAndIsolatesRanks) {
  fault::FaultInjector inj;
  inj.arm(0xdead);
  store_->set_fault_injector(&inj);
  auto helper = make_helper(fault_test_config());
  helper.set_fault_injector(&inj);

  alloc::Chunk* c = allocators_[0]->nvalloc("victim", 64 * KiB, true);
  fill(*c, 3);
  managers_[0]->nvchkptall();

  inj.kill_helper();
  const CoordinationOutcome out = helper.coordinate_now();
  EXPECT_TRUE(out.helper_dead);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.stale_chunks, 1);  // the committed chunk never shipped
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(helper.health(static_cast<std::size_t>(r)),
              RemoteHealth::kIsolated);
  }
  EXPECT_EQ(store_->committed_epoch(0, c->id()), 0u);
}

TEST_F(RemoteCkptTest, RepeatedFailuresIsolateThenProbationRecovers) {
  fault::FaultInjector inj;
  inj.arm(0x150);
  store_->set_fault_injector(&inj);
  RemoteConfig rcfg = fault_test_config();
  rcfg.retry.isolate_failures = 2;
  auto helper = make_helper(rcfg);
  helper.set_fault_injector(&inj);

  alloc::Chunk* c = allocators_[0]->nvalloc("flaky", 64 * KiB, true);
  fill(*c, 1);
  managers_[0]->nvchkptall();

  inj.set_outage(true);
  helper.coordinate_now();  // phase1 + phase2 exhausted = 2 failures
  EXPECT_EQ(helper.health(0), RemoteHealth::kIsolated);
  EXPECT_GE(helper.metrics().counter("remote.health.isolations").value(), 1u);

  inj.set_outage(false);
  helper.coordinate_now();  // probation_puts=1: one good put recovers
  EXPECT_EQ(helper.health(0), RemoteHealth::kHealthy);
  EXPECT_GE(helper.metrics().counter("remote.health.recoveries").value(), 1u);
}

// Regression: the helper used to cache its coordination deadline locally,
// so an external coordinate_now() (which restarts the round) was followed
// by a second burst when the stale cached deadline expired.
TEST_F(RemoteCkptTest, ExternalCoordinationResetsHelperDeadline) {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kNone;
  rcfg.interval = 1.0;
  rcfg.scan_period = 1e-3;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("timed", 64 * KiB, true);
  fill(*c, 1);
  managers_[0]->nvchkptall();

  helper.start();
  const Stopwatch sw;
  while (sw.elapsed() < 0.3) precise_sleep(5e-3);
  helper.coordinate_now();  // external round at ~0.3 s
  EXPECT_EQ(counter(helper, "remote.coordinations"), 1u);
  // The helper's next round is now due at ~1.3 s. With the old cached
  // deadline it fired again at ~1.0 s (a double burst).
  while (sw.elapsed() < 1.12) precise_sleep(5e-3);
  EXPECT_EQ(counter(helper, "remote.coordinations"), 1u);
  helper.stop();
}

// Regression: stop() on a never-started helper used to early-return past
// the wall_seconds gauge update, leaving it at zero after real work.
TEST_F(RemoteCkptTest, StopAlwaysSetsWallGauge) {
  RemoteConfig rcfg;
  rcfg.policy = PrecopyPolicy::kNone;
  auto helper = make_helper(rcfg);
  alloc::Chunk* c = allocators_[0]->nvalloc("gauge", 64 * KiB, true);
  fill(*c, 1);
  managers_[0]->nvchkptall();
  helper.coordinate_now();  // synchronous use, helper thread never started
  helper.stop();
  const telemetry::Gauge* g =
      helper.metrics().find_gauge("remote.wall_seconds");
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value(), 0.0);
}

TEST(RemoteRetryEnvTest, KnobsParseAndClamp) {
  ::setenv("NVMCP_REMOTE_MAX_ATTEMPTS", "7", 1);
  ::setenv("NVMCP_REMOTE_PHASE2_ATTEMPTS", "999", 1);  // clamped to 16
  ::setenv("NVMCP_REMOTE_PUT_DEADLINE", "0.25", 1);
  ::setenv("NVMCP_REMOTE_BACKOFF_BASE", "0.002", 1);
  ::setenv("NVMCP_REMOTE_BACKOFF_MAX", "0.0001", 1);  // raised to >= base
  ::setenv("NVMCP_REMOTE_JITTER", "1.5", 1);          // clamped to 1
  ::setenv("NVMCP_REMOTE_ROUND_BUDGET", "2.5", 1);
  ::setenv("NVMCP_REMOTE_ISOLATE_FAILURES", "3", 1);
  ::setenv("NVMCP_REMOTE_PROBATION_PUTS", "garbage", 1);  // ignored
  RemoteConfig cfg;
  const RemoteRetryPolicy p = resolve_remote_retry(cfg);
  EXPECT_EQ(p.max_attempts, 7);
  EXPECT_EQ(p.phase2_attempts, 16);
  EXPECT_DOUBLE_EQ(p.put_deadline, 0.25);
  EXPECT_DOUBLE_EQ(p.backoff_base, 0.002);
  EXPECT_GE(p.backoff_max, p.backoff_base);
  EXPECT_DOUBLE_EQ(p.jitter, 1.0);
  EXPECT_DOUBLE_EQ(p.round_budget, 2.5);
  EXPECT_EQ(p.isolate_failures, 3);
  EXPECT_EQ(p.probation_puts, RemoteRetryPolicy{}.probation_puts);

  cfg.retry_from_env = false;  // pinned policies ignore the environment
  const RemoteRetryPolicy pinned = resolve_remote_retry(cfg);
  EXPECT_EQ(pinned.max_attempts, RemoteRetryPolicy{}.max_attempts);

  for (const char* k :
       {"NVMCP_REMOTE_MAX_ATTEMPTS", "NVMCP_REMOTE_PHASE2_ATTEMPTS",
        "NVMCP_REMOTE_PUT_DEADLINE", "NVMCP_REMOTE_BACKOFF_BASE",
        "NVMCP_REMOTE_BACKOFF_MAX", "NVMCP_REMOTE_JITTER",
        "NVMCP_REMOTE_ROUND_BUDGET", "NVMCP_REMOTE_ISOLATE_FAILURES",
        "NVMCP_REMOTE_PROBATION_PUTS"}) {
    ::unsetenv(k);
  }
}

}  // namespace
}  // namespace nvmcp::core
