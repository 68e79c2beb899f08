// Multi-tenant arena: QoS scheduler share math, admission ordering,
// per-tenant quota enforcement (ring self-eviction, GC isolation), and
// reattach semantics. The long cross-tenant chaos trial runs under the
// *Acceptance* filter (stress label) alongside the fault campaigns.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/campaign.hpp"
#include "tenant/arena.hpp"

namespace nvmcp::tenant {
namespace {

// ---------------------------------------------------------------------------
// BandwidthScheduler: share math and work-conserving redistribution.

TEST(BandwidthScheduler, BaseSharesFollowWeightTimesBoostPowPriority) {
  BandwidthScheduler sched({/*total_bw=*/1700.0, /*priority_boost=*/4.0});
  StreamGroup* a = sched.register_tenant("a", 1.0, 2);  // share 16
  StreamGroup* b = sched.register_tenant("b", 1.0, 0);  // share 1
  // Both idle: each keeps its guaranteed base C*s/S.
  EXPECT_NEAR(a->granted(), 1600.0, 1e-6);
  EXPECT_NEAR(b->granted(), 100.0, 1e-6);
}

TEST(BandwidthScheduler, ActiveTenantClaimsIdleBase) {
  BandwidthScheduler sched({1700.0, 4.0});
  StreamGroup* a = sched.register_tenant("a", 1.0, 2);
  StreamGroup* b = sched.register_tenant("b", 1.0, 0);
  sched.note_active(*a);
  // The lone active tenant takes its base plus the idle tenant's
  // unclaimed base (work conservation); the idle tenant keeps its base
  // for pre-copy trickle.
  EXPECT_NEAR(a->granted(), 1700.0, 1e-6);
  EXPECT_NEAR(b->granted(), 100.0, 1e-6);
  // Both active: back to pure fair share.
  sched.note_active(*b);
  EXPECT_NEAR(a->granted(), 1600.0, 1e-6);
  EXPECT_NEAR(b->granted(), 100.0, 1e-6);
  // A goes idle: B inherits A's base on top of its own.
  sched.note_idle(*a);
  EXPECT_NEAR(a->granted(), 1600.0, 1e-6);
  EXPECT_NEAR(b->granted(), 1700.0, 1e-6);
  sched.note_idle(*b);
}

TEST(BandwidthScheduler, WeightScalesWithinPriority) {
  BandwidthScheduler sched({300.0, 4.0});
  StreamGroup* a = sched.register_tenant("a", 2.0, 0);  // share 2
  StreamGroup* b = sched.register_tenant("b", 1.0, 0);  // share 1
  EXPECT_NEAR(a->granted(), 200.0, 1e-6);
  EXPECT_NEAR(b->granted(), 100.0, 1e-6);
}

TEST(BandwidthScheduler, UnlimitedSchedulerLeavesTrunksUnthrottled) {
  BandwidthScheduler sched({0.0, 4.0});
  StreamGroup* a = sched.register_tenant("a", 1.0, 2);
  sched.note_active(*a);
  EXPECT_EQ(a->granted(), 0.0);  // 0 = unlimited
  EXPECT_TRUE(a->trunk()->unlimited());
}

TEST(BandwidthScheduler, ReregisterReturnsSameGroupWithUpdatedQoS) {
  BandwidthScheduler sched({400.0, 4.0});
  StreamGroup* a = sched.register_tenant("a", 1.0, 0);
  StreamGroup* b = sched.register_tenant("b", 3.0, 0);
  EXPECT_NEAR(a->granted(), 100.0, 1e-6);
  // Reattach path: same name -> same group object, new weight applied.
  StreamGroup* a2 = sched.register_tenant("a", 1.0, 1);  // share 4 now
  EXPECT_EQ(a, a2);
  EXPECT_EQ(a2->priority(), 1);
  EXPECT_NEAR(a->granted(), 400.0 * 4 / 7, 1e-6);
  EXPECT_NEAR(b->granted(), 400.0 * 3 / 7, 1e-6);
}

TEST(BandwidthScheduler, SetPriorityRebalancesLive) {
  BandwidthScheduler sched({500.0, 4.0});
  StreamGroup* a = sched.register_tenant("a", 1.0, 0);
  StreamGroup* b = sched.register_tenant("b", 1.0, 0);
  EXPECT_NEAR(a->granted(), 250.0, 1e-6);
  sched.set_priority(*a, 2);  // 16:1
  EXPECT_EQ(a->priority(), 2);
  EXPECT_NEAR(a->granted(), 500.0 * 16 / 17, 1e-6);
  EXPECT_NEAR(b->granted(), 500.0 * 1 / 17, 1e-6);
}

// ---------------------------------------------------------------------------
// AdmissionController: budget, policies, priority-first queue.

TEST(AdmissionController, FastPathUnderBudget) {
  AdmissionController ac({/*max_inflight=*/2, AdmissionPolicy::kReject});
  EXPECT_TRUE(ac.admit(0).admitted);
  EXPECT_TRUE(ac.admit(0).admitted);
  EXPECT_EQ(ac.inflight(), 2);
  ac.release();
  ac.release();
  EXPECT_EQ(ac.inflight(), 0);
}

TEST(AdmissionController, RejectPolicyFailsFastOverBudget) {
  AdmissionController ac({1, AdmissionPolicy::kReject});
  EXPECT_TRUE(ac.admit(0).admitted);
  const auto out = ac.admit(2);  // priority does not buy a slot in kReject
  EXPECT_FALSE(out.admitted);
  EXPECT_EQ(out.waited, 0.0);
  EXPECT_EQ(ac.rejections(), 1u);
  ac.release();
  EXPECT_TRUE(ac.admit(0).admitted);
  ac.release();
  EXPECT_STREQ(to_string(AdmissionPolicy::kQueue), "queue");
  EXPECT_STREQ(to_string(AdmissionPolicy::kReject), "reject");
}

TEST(AdmissionController, QueueTimesOutWhenSlotNeverFrees) {
  AdmissionController ac({1, AdmissionPolicy::kQueue, /*timeout=*/0.1});
  EXPECT_TRUE(ac.admit(0).admitted);
  const auto out = ac.admit(0);
  EXPECT_FALSE(out.admitted);
  EXPECT_GE(out.waited, 0.05);
  EXPECT_EQ(ac.waits(), 1u);
  EXPECT_EQ(ac.rejections(), 1u);
  EXPECT_GT(ac.wait_seconds(), 0.0);
  ac.release();
}

TEST(AdmissionController, QueuedRoundAdmittedOnRelease) {
  AdmissionController ac({1, AdmissionPolicy::kQueue, 5.0});
  EXPECT_TRUE(ac.admit(0).admitted);
  std::thread releaser([&] {
    precise_sleep(0.05);
    ac.release();
  });
  const auto out = ac.admit(0);
  releaser.join();
  EXPECT_TRUE(out.admitted);
  EXPECT_GT(out.waited, 0.0);
  ac.release();
}

TEST(AdmissionController, HigherPriorityWaiterAdmittedFirst) {
  AdmissionController ac({1, AdmissionPolicy::kQueue, 5.0});
  EXPECT_TRUE(ac.admit(1).admitted);  // hold the only slot

  std::atomic<int> order{0};
  std::atomic<int> low_rank{-1};
  std::atomic<int> high_rank{-1};
  std::thread low([&] {
    const auto out = ac.admit(0);
    ASSERT_TRUE(out.admitted);
    low_rank = order.fetch_add(1);
    ac.release();
  });
  precise_sleep(0.05);  // low is queued first...
  std::thread high([&] {
    const auto out = ac.admit(2);
    ASSERT_TRUE(out.admitted);
    high_rank = order.fetch_add(1);
    ac.release();
  });
  precise_sleep(0.05);
  ac.release();  // ...but the released slot must go to high first
  low.join();
  high.join();
  EXPECT_LT(high_rank.load(), low_rank.load());
  EXPECT_EQ(ac.inflight(), 0);
}

TEST(AdmissionController, NoBargingPastQueuedWaiters) {
  AdmissionController ac({1, AdmissionPolicy::kQueue, 5.0});
  EXPECT_TRUE(ac.admit(0).admitted);
  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    const auto out = ac.admit(0);
    ASSERT_TRUE(out.admitted);
    waiter_admitted = true;
    ac.release();
  });
  precise_sleep(0.05);
  ac.release();
  // A late arrival must queue behind the existing waiter, not steal the
  // freed slot on the fast path.
  const auto late = ac.admit(0);
  EXPECT_TRUE(late.admitted);
  EXPECT_TRUE(waiter_admitted.load());
  waiter.join();
  ac.release();
}

// ---------------------------------------------------------------------------
// TenantArena: end-to-end tenant lifecycle, quotas, isolation.

TenantArena::Options small_arena(int ring_depth,
                                 std::size_t capacity = 96 * MiB) {
  TenantArena::Options opts;
  opts.device.capacity = capacity;
  opts.device.throttle = false;
  opts.ring_depth = ring_depth;
  opts.max_inflight = 4;
  opts.scheduler_bw = 0;  // unlimited: these tests exercise capacity paths
  return opts;
}

TenantSpec spec_for(const std::string& name, std::size_t quota = 0) {
  TenantSpec ts;
  ts.name = name;
  ts.quota_bytes = quota;
  ts.track_mode = vmem::TrackMode::kSoftware;
  ts.ckpt.local_policy = core::PrecopyPolicy::kNone;
  return ts;
}

void fill(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
  c.notify_write();
}

TEST(TenantArena, NamespacedChunksDoNotCollide) {
  TenantArena arena(small_arena(1));
  TenantHandle& a = arena.create_tenant(spec_for("a"));
  TenantHandle& b = arena.create_tenant(spec_for("b"));
  alloc::Chunk* ca = a.nvalloc("x", 64 * KiB, true);
  alloc::Chunk* cb = b.nvalloc("x", 64 * KiB, true);
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_NE(a.chunk_id("x"), b.chunk_id("x"));
  EXPECT_EQ(a.find("x"), ca);
  EXPECT_EQ(b.find("x"), cb);
  EXPECT_EQ(arena.find("a"), &a);
  EXPECT_EQ(arena.find("nope"), nullptr);
  EXPECT_THROW(arena.create_tenant(spec_for("a")), NvmcpError);
}

TEST(TenantArena, CheckpointRoundCommitsAndCountsMetrics) {
  TenantArena arena(small_arena(2));
  TenantHandle& t = arena.create_tenant(spec_for("solo"));
  alloc::Chunk* c = t.nvalloc("v", 256 * KiB, true);
  fill(*c, 42);
  const auto res = t.checkpoint();
  EXPECT_TRUE(res.admitted);
  EXPECT_GT(res.blocking, 0.0);
  const telemetry::Counter* commits =
      arena.metrics().find_counter("tenant.solo.commits");
  ASSERT_NE(commits, nullptr);
  EXPECT_EQ(commits->value(), 1u);
  EXPECT_EQ(arena.admission().inflight(), 0);
}

TEST(TenantArena, QuotaPeakStaysUnderLimitViaRingSelfEviction) {
  // Quota fits ~3 slots of the single 64 KiB chunk while the ring depth
  // would retain 4: steady-state commits must recycle the tenant's own
  // oldest epoch rather than overshoot (or starve).
  TenantArena arena(small_arena(4));
  const std::size_t quota = 3 * 64 * KiB;
  TenantHandle& t = arena.create_tenant(spec_for("capped", quota));
  alloc::Chunk* c = t.nvalloc("v", 64 * KiB, true);
  for (int r = 0; r < 8; ++r) {
    fill(*c, 100 + static_cast<std::uint64_t>(r));
    ASSERT_TRUE(t.checkpoint().admitted) << "round " << r;
  }
  EXPECT_LE(t.quota().peak(), t.quota().limit());
  EXPECT_GT(t.quota().used(), 0u);
  // The chunk still retains at least one committed epoch to restore from.
  EXPECT_GE(t.allocator().retained_epochs(*c).size(), 1u);
}

TEST(TenantArena, QuotaPressureNeverEvictsNeighbourEpochs) {
  TenantArena arena(small_arena(4));
  TenantHandle& hog = arena.create_tenant(spec_for("hog", 3 * 64 * KiB));
  TenantHandle& calm = arena.create_tenant(spec_for("calm"));
  alloc::Chunk* ch = hog.nvalloc("v", 64 * KiB, true);
  alloc::Chunk* cc = calm.nvalloc("v", 64 * KiB, true);
  for (int r = 0; r < 3; ++r) {
    fill(*cc, 900 + static_cast<std::uint64_t>(r));
    ASSERT_TRUE(calm.checkpoint().admitted);
  }
  const std::size_t calm_retained =
      calm.allocator().retained_epochs(*cc).size();
  ASSERT_GE(calm_retained, 3u);
  // Hammer the capped tenant well past its quota.
  for (int r = 0; r < 10; ++r) {
    fill(*ch, 200 + static_cast<std::uint64_t>(r));
    ASSERT_TRUE(hog.checkpoint().admitted);
  }
  EXPECT_LE(hog.quota().peak(), hog.quota().limit());
  // The hog's quota pressure resolved inside its own ring: the calm
  // tenant's retained epochs are untouched.
  EXPECT_EQ(calm.allocator().retained_epochs(*cc).size(), calm_retained);
}

TEST(TenantArena, OverQuotaCommitThrowsAtSlotAcquisition) {
  // Depth-1 arena: quota is charged per ring slot when a commit acquires
  // it, so allocation never throws. Two chunks need four slots to hold
  // two epochs each; a quota of three lets the second round acquire only
  // one more, and the chunk left without a slot has no older epoch of
  // its own to recycle, so its commit is refused.
  TenantArena arena(small_arena(1));
  TenantHandle& t =
      arena.create_tenant(spec_for("capped", 3 * (128 * KiB)));
  TenantHandle& n = arena.create_tenant(spec_for("neighbour"));
  alloc::Chunk* a = t.nvalloc("a", 128 * KiB, true);
  alloc::Chunk* b = t.nvalloc("b", 128 * KiB, true);
  EXPECT_EQ(t.quota().used(), 0u) << "nvalloc charged before any commit";
  fill(*a, 1);
  fill(*b, 2);
  ASSERT_TRUE(t.checkpoint().admitted);
  EXPECT_EQ(t.quota().used(), 2 * (128 * KiB));
  fill(*a, 3);
  fill(*b, 4);
  EXPECT_THROW(t.checkpoint(), NvmcpError);
  EXPECT_GE(t.quota().rejections(), 1u);
  EXPECT_LE(t.quota().peak(), t.quota().limit());
  // The unmetered neighbour allocates and commits as if nothing happened.
  alloc::Chunk* c = n.nvalloc("v", 1 * MiB, true);
  fill(*c, 5);
  ASSERT_TRUE(n.checkpoint().admitted);
  std::memset(c->data(), 0, c->size());
  EXPECT_EQ(n.allocator().restore_chunk(*c), RestoreStatus::kOk);
  Rng rng(5);
  std::uint64_t got0;
  std::memcpy(&got0, c->data(), 8);
  EXPECT_EQ(got0, rng.next_u64());
}

TEST(TenantArena, RefusedRoundsCommitTheRestAtNewEpochs) {
  // Depth 1, one copier, quota for five slots: a (128 KiB) and c (32 KiB)
  // take two each, b (64 KiB) one, and b's second slot is refused every
  // round after the first. The refusal must hold back neither a, sharded
  // before b, nor c, sharded after it. Each retry numbers a new epoch and
  // copies into the chunk's older slot: reusing an epoch leaves two slots
  // holding it, and the tie then picks the acknowledged slot as the next
  // copy's target.
  TenantArena arena(small_arena(1));
  TenantSpec spec =
      spec_for("capped", 2 * (128 * KiB) + 64 * KiB + 2 * (32 * KiB));
  spec.ckpt.copy_threads = 1;
  TenantHandle& t = arena.create_tenant(spec);
  alloc::Chunk* a = t.nvalloc("a", 128 * KiB, true);
  alloc::Chunk* b = t.nvalloc("b", 64 * KiB, true);
  alloc::Chunk* c = t.nvalloc("c", 32 * KiB, true);
  fill(*a, 1);
  fill(*b, 2);
  fill(*c, 3);
  ASSERT_TRUE(t.checkpoint().admitted);
  for (std::uint64_t round = 0; round < 4; ++round) {
    std::vector<std::uint64_t> acked_off, acked_epoch;
    for (alloc::Chunk* x : {a, c}) {
      const vmem::ChunkRecord& rec = x->record();
      acked_off.push_back(rec.slot_off[rec.committed]);
      acked_epoch.push_back(rec.epoch[rec.committed]);
    }
    fill(*a, 10 + round);
    fill(*b, 20 + round);
    fill(*c, 30 + round);
    EXPECT_THROW(t.checkpoint(), NvmcpError) << "round " << round;
    EXPECT_TRUE(b->dirty_local());
    std::size_t i = 0;
    for (alloc::Chunk* x : {a, c}) {
      const vmem::ChunkRecord& rec = x->record();
      EXPECT_FALSE(x->dirty_local()) << x->name() << " round " << round;
      EXPECT_NE(rec.slot_off[rec.committed], acked_off[i])
          << x->name() << " round " << round
          << " copied into the acknowledged slot";
      EXPECT_GT(rec.epoch[rec.committed], acked_epoch[i])
          << x->name() << " round " << round;
      EXPECT_EQ(t.allocator().retained_epochs(*x),
                std::vector<std::uint64_t>(
                    {rec.epoch[rec.committed], acked_epoch[i]}));
      ++i;
    }
  }
  EXPECT_LE(t.quota().peak(), t.quota().limit());
  for (auto [x, seed] : {std::pair{a, 13}, std::pair{c, 33}}) {
    std::memset(x->data(), 0, x->size());
    EXPECT_EQ(t.allocator().restore_chunk(*x), RestoreStatus::kOk);
    Rng rng(seed);
    std::uint64_t got0;
    std::memcpy(&got0, x->data(), 8);
    EXPECT_EQ(got0, rng.next_u64()) << x->name();
  }
}

TEST(TenantArena, RefusedPrecopyLeavesTheProcessAndNeighbourRunning) {
  // The default depth with a pre-copy policy: the background engine, not
  // the application, is first to ask for the slot the quota refuses. The
  // refusal must stay with the capped tenant (its chunk left dirty for
  // the coordinated step, which then refuses on the caller's thread)
  // instead of ending the engine thread and with it every tenant.
  TenantArena arena(small_arena(1));
  TenantSpec capped = spec_for("capped", 3 * (128 * KiB));
  capped.ckpt.local_policy = core::PrecopyPolicy::kCpc;
  TenantHandle& t = arena.create_tenant(capped);
  TenantHandle& n = arena.create_tenant(spec_for("neighbour"));
  alloc::Chunk* a = t.nvalloc("a", 128 * KiB, true);
  alloc::Chunk* b = t.nvalloc("b", 128 * KiB, true);
  // Stores may race a pre-copy by design (tracking re-marks the chunk);
  // holding the commit mutex keeps them apart, as a race detector needs.
  auto store = [&](alloc::Chunk& c, std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(t.manager().commit_mutex());
    fill(c, seed);
  };
  store(*a, 1);
  store(*b, 2);
  ASSERT_TRUE(t.checkpoint().admitted);
  store(*a, 3);
  store(*b, 4);
  const telemetry::Counter& refused =
      t.manager().metrics().counter("ckpt.precopy_refused");
  const double deadline = now_seconds() + 10.0;
  while (refused.value() == 0 && now_seconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(refused.value(), 1u) << "no pre-copy round reached the refusal";
  EXPECT_LE(t.quota().peak(), t.quota().limit());
  // The neighbour allocates, commits and restores while the capped
  // tenant's engine keeps running into its quota.
  alloc::Chunk* c = n.nvalloc("v", 1 * MiB, true);
  fill(*c, 5);
  ASSERT_TRUE(n.checkpoint().admitted);
  std::memset(c->data(), 0, c->size());
  EXPECT_EQ(n.allocator().restore_chunk(*c), RestoreStatus::kOk);
  Rng rng(5);
  std::uint64_t got0;
  std::memcpy(&got0, c->data(), 8);
  EXPECT_EQ(got0, rng.next_u64());
  // The capped tenant's own round is refused where it can be handled.
  EXPECT_THROW(t.checkpoint(), NvmcpError);
  EXPECT_TRUE(a->dirty_local() || b->dirty_local());
  EXPECT_LE(t.quota().peak(), t.quota().limit());
}

TEST(TenantArena, ReattachRestoresDataWithoutDoubleCharging) {
  TenantArena arena(small_arena(2));
  const std::size_t quota = 4 * 256 * KiB;
  {
    TenantHandle& t = arena.create_tenant(spec_for("phoenix", quota));
    alloc::Chunk* c = t.nvalloc("v", 256 * KiB, true);
    fill(*c, 7);
    ASSERT_TRUE(t.checkpoint().admitted);
  }
  const std::size_t used_before = [&] {
    return arena.find("phoenix")->quota().used();
  }();
  ASSERT_GT(used_before, 0u);

  TenantHandle& t2 = arena.reattach_tenant("phoenix");
  // Same quota meter, same stream group, footprint still charged.
  EXPECT_EQ(t2.quota().used(), used_before);
  alloc::Chunk* c2 = t2.nvalloc("v", 256 * KiB, true);
  ASSERT_NE(c2, nullptr);
  EXPECT_TRUE(c2->restored());
  // Re-adopting the persisted chunk must not charge the quota again.
  EXPECT_LE(t2.quota().used(), used_before);
  Rng rng(7);
  std::uint64_t got0;
  std::memcpy(&got0, c2->data(), 8);
  EXPECT_EQ(got0, rng.next_u64());
  // And committing again still fits the quota.
  fill(*c2, 8);
  EXPECT_TRUE(t2.checkpoint().admitted);
  EXPECT_LE(t2.quota().peak(), t2.quota().limit());
}

// ---------------------------------------------------------------------------
// Cross-tenant chaos (stress label, *Acceptance* filter): tenant A dies
// mid-commit while B commits and C restores against one shared arena.

TEST(CrossTenantAcceptance, CrashMidCommitIsInvisibleToNeighbours) {
  for (std::uint64_t seed : {0xfee1ull, 0xbeefull, 0x5ca1eull}) {
    fault::CrossTenantSpec spec;
    spec.seed = seed;
    const fault::CrossTenantResult res =
        fault::CampaignRunner::run_cross_tenant(spec);
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.detail;
    EXPECT_EQ(res.b_mismatches, 0) << res.detail;
    EXPECT_EQ(res.c_mismatches, 0) << res.detail;
    EXPECT_EQ(res.a_failed, 0) << res.detail;
    EXPECT_GE(res.a_restored_latest, spec.crash_prefix);
  }
}

TEST(CrossTenantAcceptance, QuotaedTenantsSurviveChaosRound) {
  fault::CrossTenantSpec spec;
  spec.seed = 0x9a0b;
  spec.quota_bytes = 4 * 3 * 64 * KiB;  // tight: forces ring recycling
  const fault::CrossTenantResult res =
      fault::CampaignRunner::run_cross_tenant(spec);
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
}  // namespace nvmcp::tenant
