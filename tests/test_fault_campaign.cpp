// Fault subsystem: plan generation/round-trip, injector determinism, and
// chaos campaigns (seeded replay, outcome taxonomy, parity rebuilds, the
// 200-trial mixed acceptance sweep with the Section III cross-check).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"
#include "epoch/directory.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace nvmcp::fault {
namespace {

FaultPlan::GenSpec busy_spec() {
  FaultPlan::GenSpec gs;
  gs.horizon = 60.0;
  gs.mtbf_soft = 80.0;
  gs.mtbf_hard = 200.0;
  gs.torn_write_rate = 0.05;
  gs.bit_flip_rate = 0.05;
  gs.outage_rate = 0.03;
  gs.degrade_rate = 0.03;
  gs.helper_stall_rate = 0.03;
  gs.helper_kill_rate = 0.01;
  gs.ranks = 2;
  return gs;
}

TEST(FaultPlan, GenerateIsDeterministic) {
  const FaultPlan::GenSpec gs = busy_spec();
  const FaultPlan a = FaultPlan::generate(gs, 42);
  const FaultPlan b = FaultPlan::generate(gs, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_DOUBLE_EQ(a.events()[i].at_seconds, b.events()[i].at_seconds);
    EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
  }
  const FaultPlan c = FaultPlan::generate(gs, 43);
  EXPECT_TRUE(a.size() != c.size() ||
              a.events()[0].at_seconds != c.events()[0].at_seconds);
}

TEST(FaultPlan, CrashTruncatesLaterEvents) {
  FaultPlan plan;
  plan.add({FaultType::kBitFlip, 5.0, 0, 0, 1.0});
  plan.add({FaultType::kLinkOutage, 20.0, 0, 5.0, 1.0});
  plan.add({FaultType::kSoftCrash, 10.0, 0, 0, 1.0});
  ASSERT_EQ(plan.size(), 2u);  // the outage at t=20 died with the node
  ASSERT_NE(plan.crash(), nullptr);
  EXPECT_DOUBLE_EQ(plan.crash()->at_seconds, 10.0);
  // Nothing can be scheduled past the crash either.
  plan.add({FaultType::kBitFlip, 12.0, 0, 0, 1.0});
  EXPECT_EQ(plan.size(), 2u);
}

TEST(FaultPlan, JsonRoundTripIsLossless) {
  const FaultPlan plan = FaultPlan::generate(busy_spec(), 7);
  const std::string text = plan.to_json().dump(2);
  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::parse(text, &parsed, &err)) << err;
  FaultPlan back;
  ASSERT_TRUE(FaultPlan::from_json(parsed, &back, &err)) << err;
  EXPECT_EQ(back.seed(), plan.seed());
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back.events()[i].type, plan.events()[i].type);
    EXPECT_DOUBLE_EQ(back.events()[i].at_seconds,
                     plan.events()[i].at_seconds);
    EXPECT_EQ(back.events()[i].rank, plan.events()[i].rank);
    EXPECT_DOUBLE_EQ(back.events()[i].duration, plan.events()[i].duration);
    EXPECT_DOUBLE_EQ(back.events()[i].factor, plan.events()[i].factor);
  }
}

TEST(FaultPlan, GeneratorCoversEveryFaultType) {
  FaultPlan::GenSpec gs = busy_spec();
  gs.mtbf_soft = 40.0;
  gs.mtbf_hard = 40.0;
  std::set<FaultType> seen;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = FaultPlan::generate(gs, seed);
    for (const FaultEvent& e : plan.events()) {
      seen.insert(e.type);
    }
  }
  EXPECT_EQ(seen.size(), 8u) << "some fault type never generated";
}

TEST(FaultInjector, DisarmedHooksDoNothing) {
  FaultInjector inj;
  inj.set_torn_write_rate(1.0);
  std::byte buf[64] = {};
  EXPECT_FALSE(inj.armed());
  // Hook sites guard on armed(); calling the hook directly still works but
  // the components never reach it when disarmed. Verify knob behaviour.
  inj.arm(1);
  EXPECT_TRUE(inj.armed());
  EXPECT_GT(inj.maybe_tear_write(buf, sizeof buf), 0u);
  EXPECT_EQ(inj.stats().writes_torn, 1u);
  inj.disarm();
  EXPECT_FALSE(inj.armed());
}

TEST(FaultInjector, SameSeedSameDecisions) {
  FaultInjector a, b;
  a.arm(99);
  b.arm(99);
  a.set_remote_drop_rate(0.5);
  b.set_remote_drop_rate(0.5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.should_drop_remote_op(), b.should_drop_remote_op());
    EXPECT_EQ(a.pick(1000), b.pick(1000));
  }
}

CampaignSpec small_spec() {
  CampaignSpec s;
  s.trials = 16;
  s.seed = 0xbead;
  // Serial copier, explicitly: replay-determinism assertions rely on a
  // stable injector RNG draw order, which parallel copying (e.g. via an
  // NVMCP_COPY_THREADS override in the environment) does not guarantee.
  s.copy_threads = 1;
  s.ranks = 2;
  s.chunks_per_rank = 2;
  s.chunk_bytes = 16 * KiB;
  s.iterations = 8;
  s.iters_per_checkpoint = 2;
  s.iteration_seconds = 5.0;
  s.faults.mtbf_soft = 45.0;
  s.faults.mtbf_hard = 150.0;
  s.faults.bit_flip_rate = 0.02;
  s.faults.torn_write_rate = 0.02;
  s.faults.outage_rate = 0.02;
  s.faults.helper_stall_rate = 0.02;
  return s;
}

TEST(CampaignRunner, TrialSeedsAreStableAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 256; ++i) {
    seeds.insert(CampaignRunner::trial_seed(0x1234, i));
  }
  EXPECT_EQ(seeds.size(), 256u);
  EXPECT_EQ(CampaignRunner::trial_seed(0x1234, 17),
            CampaignRunner::trial_seed(0x1234, 17));
  EXPECT_NE(CampaignRunner::trial_seed(0x1234, 17),
            CampaignRunner::trial_seed(0x1235, 17));
}

TEST(CampaignRunner, SameSeedSameOutcome) {
  CampaignRunner runner(small_spec());
  // Scan a few seeds so at least one crashing trial is replayed.
  for (std::uint64_t s = 1; s <= 6; ++s) {
    const std::uint64_t seed = CampaignRunner::trial_seed(0xfeed, static_cast<int>(s));
    const TrialResult a = runner.run_trial(seed);
    const TrialResult b = runner.run_trial(seed);
    EXPECT_EQ(a.outcome, b.outcome) << "seed " << seed;
    EXPECT_EQ(a.faults_fired, b.faults_fired);
    EXPECT_DOUBLE_EQ(a.crash_seconds, b.crash_seconds);
    EXPECT_EQ(a.victim_rank, b.victim_rank);
    EXPECT_EQ(a.committed_epoch, b.committed_epoch);
    EXPECT_EQ(a.restored_epoch, b.restored_epoch);
    EXPECT_EQ(a.bytes_local, b.bytes_local);
    EXPECT_EQ(a.bytes_remote, b.bytes_remote);
    EXPECT_EQ(a.bytes_parity, b.bytes_parity);
    EXPECT_EQ(a.plan.size(), b.plan.size());
  }
}

TEST(CampaignRunner, SweepTrialsReplayFromTheirSeeds) {
  CampaignRunner runner(small_spec());
  const CampaignResult res = runner.run();
  ASSERT_EQ(res.trials.size(), 16u);
  for (const TrialResult& t : res.trials) {
    const TrialResult replay = runner.run_trial(t.seed);
    EXPECT_EQ(replay.outcome, t.outcome) << "trial " << t.index;
    EXPECT_EQ(replay.restored_epoch, t.restored_epoch);
    EXPECT_DOUBLE_EQ(replay.crash_seconds, t.crash_seconds);
    EXPECT_EQ(replay.faults_fired, t.faults_fired);
  }
}

TEST(CampaignRunner, SoftCrashesRecoverFromLocalNvm) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.faults = {};  // crashes only, no environmental noise
  s.faults.mtbf_soft = 30.0;
  s.faults.mtbf_hard = 0;  // never
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  // With clean local NVM every post-checkpoint soft crash restores
  // locally; only pre-first-checkpoint crashes report known loss.
  EXPECT_GT(res.count(TrialOutcome::kRecoveredLocal), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredRemote), 0);
  EXPECT_EQ(res.count(TrialOutcome::kStaleEpoch), 0);
}

TEST(CampaignRunner, HardCrashesNeedTheBuddyStore) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.faults = {};
  s.faults.mtbf_soft = 0;
  s.faults.mtbf_hard = 30.0;
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  EXPECT_GT(res.count(TrialOutcome::kRecoveredRemote), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredLocal), 0);
}

TEST(CampaignRunner, ParityGroupRebuildsHardCrashes) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.ranks = 3;
  s.use_parity = true;
  s.parity_shards = 1;
  s.faults = {};
  s.faults.mtbf_soft = 0;
  s.faults.mtbf_hard = 30.0;
  s.faults.ranks = 3;
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  EXPECT_GT(res.count(TrialOutcome::kParityRebuild), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredRemote), 0);
}

TEST(CampaignRunner, HelperKillLeavesRemoteStale) {
  CampaignSpec s = small_spec();
  s.trials = 32;
  s.faults = {};
  s.faults.mtbf_soft = 0;
  s.faults.mtbf_hard = 35.0;
  s.faults.helper_kill_rate = 0.2;  // helper usually dies before the crash
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  // A killed helper stops replication: hard crashes then land on an older
  // remote epoch (stale) or, if nothing was ever shipped, on known loss.
  EXPECT_GT(res.count(TrialOutcome::kStaleEpoch) +
                res.count(TrialOutcome::kDetectedCorruption),
            0);
}

// Tentpole invariant: outage/stall trials end either fully recovered or
// *explicitly* degraded -- never with an undetected stale remote cut.
// run_trial cross-checks every coordination round's degraded/stale report
// against the buddy store's committed epochs and classifies any mismatch
// as kUndetectedLoss; this campaign makes outages long enough to swallow
// whole coordination rounds and asserts the reports stay truthful.
TEST(CampaignRunner, OutageTrialsReportDegradedNeverSilentlyStale) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.seed = 0xd16e57;
  s.faults = {};
  s.faults.mtbf_soft = 0;  // no crashes: pure transport chaos
  s.faults.mtbf_hard = 0;
  s.faults.outage_rate = 0.08;      // ~3 outages per 40 s horizon
  s.faults.outage_duration = 12.0;  // spans entire coordination rounds
  s.faults.helper_stall_rate = 0.04;
  s.faults.helper_stall_duration = 8.0;
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  ASSERT_EQ(res.trials.size(), 24u);
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0)
      << "a coordination round under-reported remote staleness";
  int degraded_trials = 0;
  for (const TrialResult& t : res.trials) {
    EXPECT_TRUE(t.remote_cut_verified) << "trial " << t.index;
    if (t.remote_degraded) ++degraded_trials;
  }
  EXPECT_GT(degraded_trials, 0)
      << "no outage covered a coordination round; the campaign is vacuous";

  // Degraded-round accounting replays exactly from the trial seed.
  for (const TrialResult& t : res.trials) {
    const TrialResult replay = runner.run_trial(t.seed);
    EXPECT_EQ(replay.outcome, t.outcome) << "trial " << t.index;
    EXPECT_EQ(replay.remote_degraded, t.remote_degraded);
    EXPECT_EQ(replay.degraded_coordinations, t.degraded_coordinations);
    EXPECT_EQ(replay.remote_stale_chunks, t.remote_stale_chunks);
  }
}

// The sharded (copy_threads=4) data path under chaos: the per-trial
// managers commit/restore in parallel while torn writes, bit flips and
// crashes fire. Fault *points* are interleaving-dependent here, so no
// replay assertions — but the library invariant is absolute: recovery may
// report loss, it must never silently return wrong bytes.
TEST(CampaignRunner, ParallelCopyPathHasNoUndetectedLoss) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.seed = 0x9a8a11e1;
  s.copy_threads = 4;
  s.chunks_per_rank = 5;  // > copy_threads shards per commit
  s.faults.mtbf_soft = 30.0;
  s.faults.mtbf_hard = 120.0;
  s.faults.torn_write_rate = 0.05;
  s.faults.bit_flip_rate = 0.05;
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  ASSERT_EQ(res.trials.size(), 24u);
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0)
      << "parallel commit leaked a torn/stale slot past verification";
  int crashed = 0;
  for (const TrialResult& t : res.trials) {
    if (t.crash_seconds >= 0) ++crashed;
  }
  EXPECT_GT(crashed, 0) << "campaign produced no crashes; test is vacuous";
  EXPECT_GT(res.count(TrialOutcome::kRecoveredLocal) +
                res.count(TrialOutcome::kRecoveredRemote) +
                res.count(TrialOutcome::kStaleEpoch) +
                res.count(TrialOutcome::kDetectedCorruption),
            0);
}

// Write-log tracking under chaos: the compute phase switches to bursts of
// small logged stores (store-then-log), so every commit is reconstructed
// from sub-page dirty ranges instead of whole-chunk copies. A range the
// log dropped or the copier mis-applied leaves restored bytes matching no
// golden epoch -- classified kUndetectedLoss, always a library bug.
//
// Bit flips are in the mix: at every ring depth an incremental commit
// verifies the reused slot's bytes against its published checksum before
// folding any clean-gap bytes, so in-place NVM corruption between commits
// is detected and recopied wholesale instead of being laundered into the
// next checksum; a flipped *newest* slot fails restore verification and
// rolls back to an older retained epoch. Either way: detected, never
// silent. Depth 1 is the default; depth 3 retains more to roll back to.
TEST(CampaignRunner, WriteLogTrackingHasNoUndetectedLoss) {
  for (const int depth : {1, 3}) {
    SCOPED_TRACE("ring depth " + std::to_string(depth));
    CampaignSpec s = small_spec();
    s.trials = 32;
    s.seed = 0x10663bad;
    s.track_mode = vmem::TrackMode::kWriteLog;
    s.ring_depth = depth;
    s.chunks_per_rank = 3;
    s.iterations = 10;
    s.faults = {};
    s.faults.mtbf_soft = 30.0;
    s.faults.mtbf_hard = 120.0;
    s.faults.torn_write_rate = 0.05;
    s.faults.bit_flip_rate = 0.05;
    s.faults.outage_rate = 0.02;
    CampaignRunner runner(s);
    const CampaignResult res = runner.run();
    ASSERT_EQ(res.trials.size(), 32u);
    EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0)
        << "a logged dirty range was dropped or mis-applied at commit";
    int crashed = 0;
    for (const TrialResult& t : res.trials) {
      if (t.crash_seconds >= 0) ++crashed;
    }
    EXPECT_GT(crashed, 0) << "campaign produced no crashes; test is vacuous";
    EXPECT_GT(res.count(TrialOutcome::kRecoveredLocal) +
                  res.count(TrialOutcome::kRecoveredRemote) +
                  res.count(TrialOutcome::kStaleEpoch) +
                  res.count(TrialOutcome::kDetectedCorruption),
              0);
    // Crash-free write-log trials replay exactly like any other mode.
    for (const TrialResult& t : res.trials) {
      const TrialResult replay = runner.run_trial(t.seed);
      EXPECT_EQ(replay.outcome, t.outcome) << "trial " << t.index;
      EXPECT_EQ(replay.restored_epoch, t.restored_epoch);
    }
  }
}

// Directed version-ring scenario: depth-4 ring, NO remote protection, and
// every soft crash also corrupts the two newest retained epochs in place.
// A correct recovery must therefore surface at epoch k-2 -- byte-verified
// against the golden snapshot of that epoch -- via the restart
// coordinator's ring-rollback walk. Loss of progress is expected and
// detectable (kStaleEpoch); silent wrong bytes never are.
TEST(CampaignRunner, RingRollsBackToEpochKMinus2) {
  CampaignSpec s = small_spec();
  s.trials = 24;
  s.seed = 0x41965;
  s.ring_depth = 4;
  s.local_only = true;
  s.corrupt_newest_epochs = 2;
  s.iterations = 10;
  s.faults = {};  // soft crashes only; no environmental noise
  s.faults.mtbf_soft = 25.0;
  s.faults.mtbf_hard = 0;
  CampaignRunner runner(s);
  const CampaignResult res = runner.run();
  ASSERT_EQ(res.trials.size(), 24u);
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0)
      << "ring rollback surfaced bytes matching no committed epoch";
  // Local-only + newest-two-corrupt: nothing can come back at the latest
  // epoch, and no buddy store exists to fetch it from.
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredLocal), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredRemote), 0);
  int rolled_to_k2 = 0;
  for (const TrialResult& t : res.trials) {
    if (t.crash_seconds < 0) continue;
    if (t.chunks_rolled_back > 0 && t.restored_epoch >= 0) {
      EXPECT_EQ(t.outcome, TrialOutcome::kStaleEpoch) << "trial " << t.index;
      EXPECT_EQ(t.restored_epoch,
                static_cast<std::int64_t>(t.committed_epoch) - 2)
          << "trial " << t.index;
      ++rolled_to_k2;
    }
  }
  EXPECT_GT(rolled_to_k2, 0)
      << "no trial exercised the rollback walk; the campaign is vacuous";
  // Directed corruption is deterministic: trials replay exactly.
  for (const TrialResult& t : res.trials) {
    const TrialResult replay = runner.run_trial(t.seed);
    EXPECT_EQ(replay.outcome, t.outcome) << "trial " << t.index;
    EXPECT_EQ(replay.restored_epoch, t.restored_epoch);
    EXPECT_EQ(replay.chunks_rolled_back, t.chunks_rolled_back);
    EXPECT_EQ(replay.rollback_epoch, t.rollback_epoch);
  }
}

// Depth-1 control for the same directed scenario: a one-epoch ring, no
// remote. Corrupting only the newest epoch rolls back exactly one epoch;
// corrupting both retained epochs is detected loss with nothing rolled
// back. Neither is ever a silent success.
TEST(CampaignRunner, DepthOneRollsBackOneEpochAtMost) {
  CampaignSpec s = small_spec();
  s.trials = 12;
  s.seed = 0x41966;
  s.ring_depth = 1;
  s.local_only = true;
  s.iterations = 10;
  s.faults = {};
  s.faults.mtbf_soft = 25.0;
  s.faults.mtbf_hard = 0;

  s.corrupt_newest_epochs = 1;
  CampaignResult res = CampaignRunner(s).run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredLocal), 0);
  int rolled_to_k1 = 0;
  for (const TrialResult& t : res.trials) {
    if (t.crash_seconds < 0 || t.chunks_rolled_back == 0) continue;
    EXPECT_EQ(t.outcome, TrialOutcome::kStaleEpoch) << "trial " << t.index;
    EXPECT_EQ(t.restored_epoch,
              static_cast<std::int64_t>(t.committed_epoch) - 1)
        << "trial " << t.index;
    ++rolled_to_k1;
  }
  EXPECT_GT(rolled_to_k1, 0) << "no trial rolled back; vacuous";

  s.corrupt_newest_epochs = 2;
  res = CampaignRunner(s).run();
  EXPECT_EQ(res.count(TrialOutcome::kUndetectedLoss), 0);
  EXPECT_EQ(res.count(TrialOutcome::kRecoveredLocal), 0);
  EXPECT_EQ(res.count(TrialOutcome::kStaleEpoch), 0)
      << "a stale success with both retained epochs corrupt means a "
         "reused slot leaked a version";
  int detected = 0;
  for (const TrialResult& t : res.trials) {
    if (t.crash_seconds < 0) continue;
    EXPECT_EQ(t.chunks_rolled_back, 0) << "trial " << t.index;
    if (t.outcome == TrialOutcome::kDetectedCorruption) ++detected;
  }
  EXPECT_GT(detected, 0) << "no crash landed after a commit; vacuous";
}

// --- directed codec chaos --------------------------------------------
// The campaign hits encoded remote payloads statistically; this scenario
// pins the laundering hazard the frame format exists to close: a flipped
// bit inside a stored frame, LZ or raw.

struct CodecChaosRig {
  explicit CodecChaosRig(core::CodecMode mode) : link(2.0e9, 0.1) {
    NvmConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.throttle = false;
    dev = std::make_unique<NvmDevice>(cfg);
    container = std::make_unique<vmem::Container>(*dev);
    allocator = std::make_unique<alloc::ChunkAllocator>(*container);
    core::CheckpointConfig ccfg;
    ccfg.codec_mode = mode;
    mgr = std::make_unique<core::CheckpointManager>(*allocator, ccfg);
    NvmConfig scfg;
    scfg.capacity = 64 * MiB;
    scfg.throttle = false;
    store = std::make_unique<net::RemoteStore>(scfg);
    remote = std::make_unique<net::RemoteMemory>(link, *store);
    core::RemoteConfig rcfg;
    rcfg.policy = core::PrecopyPolicy::kNone;
    helper = std::make_unique<core::RemoteCheckpointer>(
        std::vector<core::CheckpointManager*>{mgr.get()}, *remote, rcfg);
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

  void corrupt_newest_local(alloc::Chunk& c) {
    const auto& rec = c.record();
    dev->data()[rec.slot_off[rec.committed] + 17] ^= std::byte{0xFF};
  }

  net::Interconnect link;
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> allocator;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> remote;
  std::unique_ptr<core::RemoteCheckpointer> helper;
};

// Flip one bit inside the committed frame on the buddy store, encoded or
// raw. With the local slot also dead, the restore must report the loss --
// decoding the damaged frame into "restored" state would be laundering.
void expect_frame_bit_flip_detected(core::CodecMode mode,
                                    const char* choice_counter) {
  SCOPED_TRACE(choice_counter);
  CodecChaosRig rig(mode);
  auto* c = rig.allocator->nvalloc("flip", 64 * KiB, true);
  // Runs + seeded noise: compressible enough that the frame really is LZ.
  std::memset(c->data(), 0x2a, c->size() / 2);
  rig.fill(*c, 7);
  std::memset(static_cast<std::byte*>(c->data()) + c->size() / 4,
              0x2a, c->size() / 2);
  std::vector<std::byte> golden(c->size());
  std::memcpy(golden.data(), c->data(), c->size());
  rig.mgr->nvchkptall();
  ASSERT_FALSE(rig.helper->coordinate_now().degraded);
  ASSERT_GE(rig.helper->metrics().counter(choice_counter).value(), 1u);

  FaultInjector fi;
  ASSERT_TRUE(rig.store->corrupt_committed(0, c->id(), fi));
  rig.corrupt_newest_local(*c);
  std::memset(c->data(), 0xcd, c->size());

  core::RestartCoordinator rc(*rig.mgr, rig.remote.get());
  const core::RestartReport rep = rc.restart_after(core::FailureKind::kSoft);
  EXPECT_EQ(rep.chunks_failed, 1);
  EXPECT_EQ(rep.chunks_remote, 0)
      << "a corrupted frame was accepted as a remote restore";
  // Whatever the coordinator left in DRAM, it is not a silent half-decode
  // of the damaged frame presented as the checkpoint.
  EXPECT_NE(rep.status, RestoreStatus::kOk);
  EXPECT_NE(rep.status, RestoreStatus::kOkFromRemote);

  // The transport heals: re-ship (helper re-encodes from the recovered
  // application state) and the next crash restores byte-exactly.
  std::memcpy(c->data(), golden.data(), golden.size());
  c->notify_write();
  rig.mgr->nvchkptall();
  ASSERT_FALSE(rig.helper->coordinate_now().degraded);
  rig.corrupt_newest_local(*c);
  std::memset(c->data(), 0xcd, c->size());
  const core::RestartReport rep2 = rc.restart_after(core::FailureKind::kSoft);
  EXPECT_EQ(rep2.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(std::memcmp(c->data(), golden.data(), golden.size()), 0);
}

TEST(CodecChaos, BitFlipInEncodedFrameIsDetectedNeverLaundered) {
  expect_frame_bit_flip_detected(core::CodecMode::kLz, "codec.choice.lz");
  expect_frame_bit_flip_detected(core::CodecMode::kRaw, "codec.choice.raw");
}

// Acceptance: 200 mixed soft/hard trials, no undetected loss, every trial
// replayable, RunReport carries the measured-vs-model cross-check.
TEST(CampaignRunner, MixedCampaign200TrialsAcceptance) {
  CampaignSpec s = small_spec();
  s.trials = 200;
  s.seed = 0xacce97;
  const CampaignRunner runner(s);
  CampaignRunner mutable_runner(s);
  const CampaignResult res = mutable_runner.run();
  ASSERT_EQ(res.trials.size(), 200u);

  EXPECT_EQ(res.undetected_losses, 0)
      << "undetected data loss is always a library bug";
  // The mix produces real diversity.
  int crashed = 0;
  for (const TrialResult& t : res.trials) {
    if (t.crash_seconds >= 0) ++crashed;
  }
  EXPECT_GT(crashed, 50);
  EXPECT_GT(res.count(TrialOutcome::kRecoveredLocal), 0);

  // Every trial replays to the identical classification.
  for (const TrialResult& t : res.trials) {
    const TrialResult replay = runner.run_trial(t.seed);
    ASSERT_EQ(replay.outcome, t.outcome) << "trial " << t.index
                                         << " seed " << t.seed;
    ASSERT_EQ(replay.restored_epoch, t.restored_epoch);
  }

  // Model cross-check: both efficiencies sane, ratio recorded.
  EXPECT_GT(res.measured_efficiency, 0.0);
  EXPECT_LE(res.measured_efficiency, 1.0);
  EXPECT_GT(res.model_efficiency, 0.0);
  EXPECT_LE(res.model_efficiency, 1.0);
  EXPECT_GT(res.efficiency_ratio, 0.3);
  EXPECT_LT(res.efficiency_ratio, 3.0);

  telemetry::RunReport rep("fault_campaign_test");
  res.fill_report(s, rep);
  const Json& root = rep.root();
  ASSERT_NE(root.find("model_cross_check"), nullptr);
  ASSERT_NE(root.find("outcomes"), nullptr);
  ASSERT_NE(root.find("trials"), nullptr);
  EXPECT_EQ(root.find("trials")->items().size(), 200u);
  ASSERT_NE(root.find("metrics"), nullptr);
  EXPECT_NE(root.find("model_cross_check")->find("efficiency_ratio"),
            nullptr);
}

}  // namespace
}  // namespace nvmcp::fault
