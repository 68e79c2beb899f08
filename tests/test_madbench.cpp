// MADBench2-style ramdisk vs in-memory checkpoint comparison (the paper's
// motivation experiment for treating NVM as memory).
#include <gtest/gtest.h>

#include <cstdio>

#include "apps/madbench.hpp"

namespace nvmcp::apps {
namespace {

/// The overhead the ramdisk path exists to show is modeled kernel work:
/// per writer and repetition an open, one write per io_size block, an
/// fsync and a close, each sleeping syscall_latency, and every VFS block
/// taking the global lock. Asserted as counts; the wall-clock slowdown
/// varies with host load and is only printed.
void expect_kernel_work(const MadBenchConfig& cfg, const MadBenchResult& r) {
  const std::uint64_t blocks =
      (cfg.data_bytes + cfg.io_size - 1) / cfg.io_size;
  EXPECT_EQ(r.ramdisk_syscalls,
            static_cast<std::uint64_t>(cfg.writers) * (1 + blocks + 2));
  EXPECT_GT(r.ramdisk_lock_acquisitions, 0u);
  std::printf("  %d writer(s) x %zu MiB: ramdisk slowdown %.2f\n",
              cfg.writers, cfg.data_bytes / MiB, r.ramdisk_slowdown);
}

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
  expect_kernel_work(cfg, run_madbench(cfg));
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
  expect_kernel_work(small, s);
  expect_kernel_work(big, b);
  EXPECT_GT(b.ramdisk_syscalls, s.ramdisk_syscalls);
  EXPECT_GT(b.ramdisk_lock_acquisitions, s.ramdisk_lock_acquisitions);
}

TEST(MadBench, SingleWriterStillShowsOverhead) {
  MadBenchConfig cfg;
  cfg.data_bytes = 16 * MiB;
  cfg.writers = 1;
  cfg.repetitions = 2;
  expect_kernel_work(cfg, run_madbench(cfg));
}

}  // namespace
}  // namespace nvmcp::apps
