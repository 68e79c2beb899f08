// MADBench2-style ramdisk vs in-memory checkpoint comparison (the paper's
// motivation experiment for treating NVM as memory).
#include <gtest/gtest.h>

#include "apps/madbench.hpp"

namespace nvmcp::apps {
namespace {

TEST(MadBench, RamdiskSlowerThanMemory) {
  MadBenchConfig cfg;
  cfg.data_bytes = 24 * MiB;
  cfg.writers = 2;
  cfg.repetitions = 2;
  const MadBenchResult r = run_madbench(cfg);
  EXPECT_GT(r.memory_seconds, 0.0);
  EXPECT_GT(r.ramdisk_seconds, r.memory_seconds);
  EXPECT_GT(r.ramdisk_slowdown, 0.0);
}

TEST(MadBench, RamdiskPathDoesKernelSynchronization) {
  MadBenchConfig cfg;
  cfg.data_bytes = 8 * MiB;
  cfg.writers = 2;
  cfg.repetitions = 1;
  const MadBenchResult r = run_madbench(cfg);
  // Per writer: open + writes + fsync + close syscalls.
  EXPECT_GT(r.ramdisk_syscalls, 2u * (8u + 3u) - 4u);
  EXPECT_GT(r.ramdisk_lock_acquisitions, 0u);
}

TEST(MadBench, SlowdownGrowsWithDataSize) {
  // The paper's key trend: the ramdisk gap widens with checkpoint size
  // (46% at 300 MB/core). The kernel work behind it -- syscalls and
  // ramdisk lock acquisitions -- grows with the data; asserted on those
  // modeled counters, not on a wall-clock ratio.
  MadBenchConfig small;
  small.data_bytes = 4 * MiB;
  small.writers = 2;
  small.repetitions = 5;
  MadBenchConfig big = small;
  big.data_bytes = 32 * MiB;
  const MadBenchResult s = run_madbench(small);
  const MadBenchResult b = run_madbench(big);
  EXPECT_GT(s.ramdisk_slowdown, 0.0);
  EXPECT_GT(b.ramdisk_slowdown, 0.0);
  EXPECT_GT(b.ramdisk_syscalls, s.ramdisk_syscalls);
  EXPECT_GT(b.ramdisk_lock_acquisitions, s.ramdisk_lock_acquisitions);
}

TEST(MadBench, SingleWriterStillShowsOverhead) {
  MadBenchConfig cfg;
  cfg.data_bytes = 16 * MiB;
  cfg.writers = 1;
  cfg.repetitions = 2;
  const MadBenchResult r = run_madbench(cfg);
  EXPECT_GT(r.ramdisk_slowdown, 0.0);
}

}  // namespace
}  // namespace nvmcp::apps
