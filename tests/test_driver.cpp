// Workload driver end-to-end: multi-rank runs against the real library,
// pre-copy reducing blocking time, checkpoint-size reduction for GTC, and
// remote checkpointing through the shared link.
#include <gtest/gtest.h>

#include "apps/driver.hpp"

namespace nvmcp::apps {
namespace {

DriverConfig quick(WorkloadSpec spec) {
  DriverConfig cfg;
  cfg.spec = std::move(spec);
  cfg.spec.iters_per_checkpoint = 2;
  cfg.ranks = 2;
  cfg.iterations = 4;
  cfg.size_scale = 1.0 / 512;
  cfg.time_scale = 1.0 / 256;
  cfg.ckpt.nvm_bw_per_core = 400.0 * MiB;
  cfg.ckpt.precopy_scan_period = 1e-3;
  return cfg;
}

TEST(Driver, RunsToCompletionAndCheckpoints) {
  DriverConfig cfg = quick(WorkloadSpec::gtc());
  cfg.ckpt.local_policy = core::PrecopyPolicy::kNone;
  const DriverResult r = run_workload(cfg);
  EXPECT_GT(r.wall_seconds, 0.0);
  // 2 ranks x (4 iterations / every 2) = 4 coordinated checkpoints total.
  EXPECT_EQ(r.ckpt.local_checkpoints, 4u);
  EXPECT_EQ(r.blocking_per_checkpoint.size(), 2u);
  EXPECT_GT(r.ckpt.bytes_coordinated, 0u);
  EXPECT_GT(r.protection_faults, 0u);
}

TEST(Driver, CheckpointDisabledMeansNoNvmTraffic) {
  DriverConfig cfg = quick(WorkloadSpec::cm1());
  cfg.checkpoint_enabled = false;
  const DriverResult r = run_workload(cfg);
  EXPECT_EQ(r.ckpt.local_checkpoints, 0u);
  // Only chunk-table metadata lands in NVM; no payload traffic.
  EXPECT_LT(r.nvm.bytes_written, 2 * MiB);
}

TEST(Driver, PrecopyReducesBlockingTime) {
  DriverConfig cfg = quick(WorkloadSpec::gtc());
  cfg.iterations = 6;
  cfg.ckpt.local_policy = core::PrecopyPolicy::kNone;
  const DriverResult no_pc = run_workload(cfg);
  cfg.ckpt.local_policy = core::PrecopyPolicy::kCpc;
  const DriverResult pc = run_workload(cfg);
  EXPECT_LT(pc.ckpt.local_blocking_seconds,
            no_pc.ckpt.local_blocking_seconds);
  EXPECT_GT(pc.ckpt.bytes_precopied, 0u);
  EXPECT_LT(pc.ckpt.bytes_coordinated, no_pc.ckpt.bytes_coordinated);
}

TEST(Driver, GtcInitOnlyChunksAreSkipped) {
  DriverConfig cfg = quick(WorkloadSpec::gtc());
  cfg.iterations = 6;
  cfg.ckpt.local_policy = core::PrecopyPolicy::kNone;
  const DriverResult r = run_workload(cfg);
  // The static GTC arrays are only written at iteration 0; later
  // checkpoints must skip them (Fig 8's checkpoint-size reduction).
  EXPECT_GT(r.ckpt.chunks_skipped_unmodified, 0u);
}

TEST(Driver, RemoteCheckpointingShipsData) {
  DriverConfig cfg = quick(WorkloadSpec::lammps_rhodo());
  cfg.remote_enabled = true;
  cfg.remote.policy = core::PrecopyPolicy::kCpc;
  cfg.remote.interval = 0.08;
  cfg.remote.scan_period = 2e-3;
  const DriverResult r = run_workload(cfg);
  EXPECT_GT(r.metrics->counter("remote.bytes_sent").value(), 0u);
  EXPECT_GT(r.link.checkpoint_bytes, 0u);
  EXPECT_GT(r.peak_ckpt_link_rate, 0.0);
  EXPECT_GE(r.metrics->counter("remote.coordinations").value(), 1u);
}

TEST(Driver, EfficiencyBelowOneButPositive) {
  DriverConfig cfg = quick(WorkloadSpec::cm1());
  const DriverResult r = run_workload(cfg);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LT(r.efficiency, 1.0);
  EXPECT_GT(r.ideal_seconds, 0.0);
}

TEST(Driver, SoftwareTrackingModeWorksToo) {
  DriverConfig cfg = quick(WorkloadSpec::cm1());
  cfg.track_mode = vmem::TrackMode::kSoftware;
  // Software mode: the driver reports writes via notify_write(), so no
  // protection faults occur but dirty tracking still works.
  const DriverResult r = run_workload(cfg);
  EXPECT_EQ(r.protection_faults, 0u);
  EXPECT_GT(r.ckpt.local_checkpoints, 0u);
}

TEST(Driver, InvalidRanksRejected) {
  DriverConfig cfg = quick(WorkloadSpec::cm1());
  cfg.ranks = 0;
  EXPECT_THROW(run_workload(cfg), NvmcpError);
}

}  // namespace
}  // namespace nvmcp::apps
