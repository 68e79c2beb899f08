// The paper's 8-node cluster on the cluster simulator: checkpoint cadence,
// failure recovery semantics, pre-copy effects on blocking time and peak
// link usage, determinism, and the Fig 9 overhead reduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "sim/cluster_scale.hpp"

namespace nvmcp::sim {
namespace {

// 8 nodes in one rack with pairwise buddies; the uplink gives each node
// the paper's 5 GB/s. No OS-noise jitter, so every node runs the same
// schedule and job-level times are exact.
constexpr int kNodes = 8;

ScaleConfig base() {
  ScaleConfig cfg;
  cfg.topo.nodes = kNodes;
  cfg.topo.nodes_per_rack = kNodes;
  cfg.strategy = RemoteStrategy::kReplication;
  cfg.ring_rack_stride = 0;
  cfg.compute_per_iter = 4.0;
  cfg.compute_jitter = 0.0;
  cfg.comm_bytes_per_iter = 0.5e9;
  cfg.total_compute = 400.0;
  cfg.ckpt_bytes = 4.7e9;
  cfg.local_interval = 40.0;
  cfg.remote_interval = 120.0;
  cfg.nvm_bw = 2.0e9;
  cfg.rack_uplink_bw = kNodes * 5.0e9;
  cfg.precopy = false;
  return cfg;
}

// Failure rates are drawn per node; a job-level MTBF m means each of the
// kNodes nodes fails every kNodes * m seconds.
void set_job_mtbf(ScaleConfig& cfg, double soft, double hard) {
  cfg.node_soft_mtbf = kNodes * soft;
  cfg.node_hard_mtbf = kNodes * hard;
}

TEST(SimCluster, NoCheckpointNoFailureHitsIdeal) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  cfg.local_interval = 1e9;  // never checkpoints
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.local_checkpoints, 0);
  EXPECT_NEAR(r.efficiency, 1.0, 1e-6);
  EXPECT_NEAR(r.wall, r.ideal, 1e-6);
}

TEST(SimCluster, CheckpointCadenceMatchesInterval) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult r = run_scale_cluster(cfg);
  // ~400s of compute+comm with a 40s interval: about 10 local checkpoints.
  EXPECT_GE(r.local_checkpoints, 8);
  EXPECT_LE(r.local_checkpoints, 12);
  EXPECT_LT(r.efficiency, 1.0);
}

TEST(SimCluster, BlockingTimeMatchesVolumeOverBandwidth) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult r = run_scale_cluster(cfg);
  const double per_ckpt = r.local_blocking / r.local_checkpoints;
  EXPECT_NEAR(per_ckpt, cfg.ckpt_bytes / cfg.nvm_bw, 0.05);
}

TEST(SimCluster, LocalPrecopyCutsBlockingTime) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult no_pc = run_scale_cluster(cfg);
  cfg.precopy = true;
  const ScaleResult pc = run_scale_cluster(cfg);
  EXPECT_LT(pc.local_blocking, 0.5 * no_pc.local_blocking);
  EXPECT_GT(pc.efficiency, no_pc.efficiency);
  // The price: more total NVM traffic.
  EXPECT_GT(pc.nvm_bytes, no_pc.nvm_bytes * 0.9);
}

TEST(SimCluster, RemotePrecopyHalvesPeakLinkUsage) {
  ScaleConfig cfg = base();
  const ScaleResult burst = run_scale_cluster(cfg);
  cfg.precopy = true;
  const ScaleResult spread = run_scale_cluster(cfg);
  EXPECT_GT(burst.peak_link_ckpt_rate, 0.0);
  EXPECT_LT(spread.peak_link_ckpt_rate, 0.7 * burst.peak_link_ckpt_rate);
  EXPECT_GE(spread.efficiency, burst.efficiency);
}

TEST(SimCluster, SoftFailuresRollBackToLocalCheckpoint) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  set_job_mtbf(cfg, 120.0, 0.0);
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.soft_failures, 0);
  EXPECT_EQ(r.recoveries_local, r.soft_failures);
  EXPECT_GT(r.lost_work, 0.0);
  EXPECT_GT(r.restart_seconds, 0.0);
  EXPECT_LT(r.efficiency, 1.0);
  EXPECT_NEAR(r.wall * r.efficiency, r.ideal, 1e-6);
}

TEST(SimCluster, HardFailuresNeedRemoteCheckpoints) {
  ScaleConfig cfg = base();
  cfg.precopy = true;
  set_job_mtbf(cfg, 0.0, 150.0);
  int total_hard = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    cfg.seed = seed;
    const ScaleResult r = run_scale_cluster(cfg);
    total_hard += r.hard_failures;
    // Work always completes because the buddy's remote cut bounds the
    // rollback: no hard failure restarts the job from zero.
    EXPECT_EQ(r.recoveries_buddy, r.hard_failures);
    EXPECT_EQ(r.unrecoverable, 0);
    EXPECT_GT(r.efficiency, 0.05);
  }
  EXPECT_GT(total_hard, 0);
}

TEST(SimCluster, MoreFailuresLowerEfficiency) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  set_job_mtbf(cfg, 500.0, 0.0);
  const double healthy = run_scale_cluster(cfg).efficiency;
  set_job_mtbf(cfg, 60.0, 0.0);
  const double flaky = run_scale_cluster(cfg).efficiency;
  EXPECT_LT(flaky, healthy);
}

TEST(SimCluster, DeterministicForSeed) {
  ScaleConfig cfg = base();
  set_job_mtbf(cfg, 150.0, 0.0);
  cfg.seed = 99;
  const ScaleResult a = run_scale_cluster(cfg);
  const ScaleResult b = run_scale_cluster(cfg);
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.soft_failures, b.soft_failures);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SimCluster, DifferentSeedsDifferUnderFailures) {
  ScaleConfig cfg = base();
  set_job_mtbf(cfg, 150.0, 0.0);
  cfg.seed = 1;
  const double a = run_scale_cluster(cfg).wall;
  cfg.seed = 2;
  const double b = run_scale_cluster(cfg).wall;
  EXPECT_NE(a, b);
}

TEST(SimCluster, LinkContentionSlowsCommunication) {
  ScaleConfig cfg = base();
  // Communication-intensive shape so checkpoint bursts overlap comm
  // phases (short compute, large messages).
  cfg.compute_per_iter = 0.5;
  cfg.comm_bytes_per_iter = 1.0e9;  // 0.2 s per iteration uncontended
  cfg.total_compute = 100.0;
  cfg.precopy = false;  // bursty remote checkpoints
  const ScaleResult with_ckpt = run_scale_cluster(cfg);
  cfg.remote_enabled = false;
  const ScaleResult without = run_scale_cluster(cfg);
  EXPECT_GT(with_ckpt.app_comm_seconds, without.app_comm_seconds);
}

// Regression (lost-work accounting): a failure used to charge only the
// iterations already credited, silently dropping the in-flight
// iteration's partial progress. With compute_per_iter = 4, comm
// 0.2 s/iter, no checkpoints: iterations run [0,4) compute, [4,4.2) comm,
// [4.2,8.2) compute, [8.2,8.4) comm, [8.4,12.4) compute. A failure at
// t = 10.0 lands 1.6 s into the third compute phase, so every node has
// lost 4 + 4 + 1.6 = 9.6 s of work (the old code said 8).
TEST(SimCluster, LostWorkCountsInFlightIteration) {
  ScaleConfig cfg = base();
  cfg.compute_per_iter = 4.0;
  cfg.comm_bytes_per_iter = 1.0e9;  // 0.2 s per iteration at 5 GB/s a node
  cfg.total_compute = 20.0;
  cfg.local_interval = 1e9;  // never checkpoints: rollback goes to zero
  cfg.remote_enabled = false;
  cfg.forced_outages.push_back({10.0, OutageKind::kNodeSoft, 3});
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.soft_failures, 1);
  EXPECT_NEAR(r.lost_work / kNodes, 9.6, 1e-9);  // lost_work is node-seconds
}

// Same bug, failure during the communication phase: the iteration's compute
// finished but was never credited, so a failure at t = 8.3 (mid-comm of
// iteration 2) destroys 4 + 4 = 8 s per node (old code: 4).
TEST(SimCluster, LostWorkCountsCommPhaseIteration) {
  ScaleConfig cfg = base();
  cfg.compute_per_iter = 4.0;
  cfg.comm_bytes_per_iter = 1.0e9;
  cfg.total_compute = 20.0;
  cfg.local_interval = 1e9;
  cfg.remote_enabled = false;
  cfg.forced_outages.push_back({8.3, OutageKind::kNodeSoft, 3});
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.soft_failures, 1);
  EXPECT_NEAR(r.lost_work / kNodes, 8.0, 1e-9);
}

// Regression (failure re-arm): failure events left over once the job
// finished used to keep the queue from ever draining.
TEST(SimCluster, QueueDrainsAfterFinish) {
  ScaleConfig cfg = base();
  cfg.precopy = true;
  set_job_mtbf(cfg, 90.0, 300.0);
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.soft_failures + r.hard_failures, 0);
  EXPECT_TRUE(r.queue_drained);
  EXPECT_GT(r.events_fired, 0u);
}

// Property sweep: completion and sane efficiency across the parameter grid
// of the Fig 9 bench.
class ClusterSweep
    : public ::testing::TestWithParam<std::tuple<double, double, bool>> {};

TEST_P(ClusterSweep, CompletesWithSaneEfficiency) {
  ScaleConfig cfg = base();
  cfg.nvm_bw = std::get<0>(GetParam());
  cfg.remote_interval = std::get<1>(GetParam());
  cfg.precopy = std::get<2>(GetParam());
  set_job_mtbf(cfg, 200.0, 900.0);
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LE(r.efficiency, 1.0 + 1e-9);
  EXPECT_GT(r.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterSweep,
    ::testing::Combine(::testing::Values(0.4e9, 1.0e9, 2.0e9),
                       ::testing::Values(47.0, 120.0, 180.0),
                       ::testing::Bool()));

// Paper Fig 9: remote checkpointing with and without pre-copy on the
// 8-node cluster (4.7 GB per node, local interval 40 s), over NVM
// bandwidth x remote interval, with failures split 400 s soft / 2400 s
// hard at job level. The paper reads 10.6% -> 6.2% average overhead, a
// ~40% cut; the band is 40% +- 10 points, over the bench's 20 seeds.
TEST(SimCluster, Fig9PrecopyCutsRemoteOverheadAboutFortyPercent) {
  double overhead[2] = {0, 0};
  for (const double bw : {1.0e9, 2.0e9, 4.0e9}) {
    for (const double ri : {47.0, 90.0, 120.0, 180.0}) {
      double eff[2] = {0, 0};
      for (const int precopy : {0, 1}) {
        ScaleConfig cfg = base();
        cfg.comm_bytes_per_iter = 0.8e9;
        cfg.total_compute = 1200.0;
        cfg.remote_interval = ri;
        cfg.precopy = precopy != 0;
        cfg.nvm_bw = bw;
        set_job_mtbf(cfg, 400.0, 2400.0);
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
          cfg.seed = seed;
          eff[precopy] += run_scale_cluster(cfg).efficiency / 20.0;
        }
        overhead[precopy] += 1.0 / eff[precopy] - 1.0;
      }
      EXPECT_GT(eff[1], eff[0]) << "NVM BW " << bw << ", remote interval "
                                << ri;
    }
  }
  const double reduction = 1.0 - overhead[1] / overhead[0];
  EXPECT_GE(reduction, 0.30);
  EXPECT_LE(reduction, 0.50);
}

}  // namespace
}  // namespace nvmcp::sim
