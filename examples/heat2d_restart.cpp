// heat2d_restart: a restartable 2D heat-diffusion solver with injected
// crashes -- the classic application-initiated checkpoint pattern.
//
// The solver runs Jacobi iterations on a grid, checkpoints every
// kCheckpointEvery sweeps, and a "failure injector" kills the in-memory
// state at a configurable sweep. Recovery restores the last committed
// checkpoint from NVM (two-version commit means a crash mid-checkpoint is
// also safe) and re-executes only the lost sweeps. At the end the program
// verifies the recovered run matches an uninterrupted reference run
// bit-for-bit.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"
#include "core/manager.hpp"
#include "core/restart.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace nvmcp;

constexpr std::size_t kNx = 256;
constexpr std::size_t kNy = 256;
constexpr int kSweeps = 60;
constexpr int kCheckpointEvery = 8;
constexpr int kCrashAtSweep = 29;

struct Solver {
  alloc::Chunk* grid_chunk;
  alloc::Chunk* meta_chunk;
  double* grid;     // kNx * kNy
  long* sweep_done; // persistent progress counter
  std::vector<double> scratch;

  explicit Solver(alloc::ChunkAllocator& allocator)
      : scratch(kNx * kNy, 0.0) {
    grid_chunk = allocator.find(alloc::genid("heat_grid"));
    if (!grid_chunk) {
      grid_chunk =
          allocator.nv2dalloc("heat_grid", kNx, kNy, sizeof(double), true);
    }
    meta_chunk = allocator.find(alloc::genid("heat_meta"));
    if (!meta_chunk) {
      meta_chunk = allocator.nvalloc("heat_meta", sizeof(long), true);
    }
    grid = grid_chunk->as<double>();
    sweep_done = meta_chunk->as<long>();
  }

  void initialize() {
    for (std::size_t y = 0; y < kNy; ++y) {
      for (std::size_t x = 0; x < kNx; ++x) {
        // Hot plate at the top edge, cold elsewhere.
        grid[y * kNx + x] = y == 0 ? 400.0 : 280.0;
      }
    }
    *sweep_done = 0;
  }

  void sweep() {
    for (std::size_t y = 1; y + 1 < kNy; ++y) {
      for (std::size_t x = 1; x + 1 < kNx; ++x) {
        scratch[y * kNx + x] =
            0.25 * (grid[y * kNx + x - 1] + grid[y * kNx + x + 1] +
                    grid[(y - 1) * kNx + x] + grid[(y + 1) * kNx + x]);
      }
    }
    for (std::size_t y = 1; y + 1 < kNy; ++y) {
      std::memcpy(&grid[y * kNx + 1], &scratch[y * kNx + 1],
                  (kNx - 2) * sizeof(double));
    }
    ++*sweep_done;
    meta_chunk->notify_write();
  }

  double center() const { return grid[(kNy / 2) * kNx + kNx / 2]; }
};

/// Run the solver to kSweeps; if `crash`, wipe DRAM state at kCrashAtSweep
/// and recover from the checkpoint. Returns the final center temperature.
double run(bool crash) {
  NvmConfig ncfg;
  ncfg.capacity = 32 * MiB;
  ncfg.throttle = false;  // keep the example snappy
  NvmDevice device(ncfg);
  vmem::Container container(device);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kCpc;
  core::CheckpointManager manager(allocator, ccfg);
  manager.start();

  Solver solver(allocator);
  solver.initialize();
  manager.nvchkptall();  // checkpoint the initial condition

  bool crashed = false;
  int executed = 0;
  while (*solver.sweep_done < kSweeps) {
    solver.sweep();
    ++executed;
    if (*solver.sweep_done % kCheckpointEvery == 0) {
      manager.nvchkptall();
    }
    if (crash && !crashed && *solver.sweep_done == kCrashAtSweep) {
      crashed = true;
      // Simulate a node crash: all DRAM state is garbage afterwards.
      Rng rng(1234);
      for (std::size_t i = 0; i < kNx * kNy; ++i) {
        solver.grid[i] = rng.uniform(-1e9, 1e9);
      }
      *solver.sweep_done = -777;
      const RestoreStatus st =
          core::RestartCoordinator(manager, nullptr)
              .restart_after(core::FailureKind::kSoft)
              .status;
      std::printf("  crash at sweep %d -> restore: %s, resuming from "
                  "sweep %ld\n",
                  kCrashAtSweep, to_string(st), *solver.sweep_done);
    }
  }
  manager.stop();
  std::printf("  %s run: %d sweeps executed (%d lost to the crash), "
              "center=%.6f\n",
              crash ? "crashy " : "failure-free", executed,
              executed - kSweeps, solver.center());
  return solver.center();
}

}  // namespace

int main() {
  nvmcp::telemetry::init_from_env();
  std::printf("2D heat solver, %zux%zu grid, %d sweeps, checkpoint every "
              "%d:\n",
              kNx, kNy, kSweeps, kCheckpointEvery);
  const double reference = run(/*crash=*/false);
  const double recovered = run(/*crash=*/true);
  nvmcp::telemetry::flush_trace();
  if (std::memcmp(&reference, &recovered, sizeof(double)) == 0) {
    std::printf("OK: recovered run matches the failure-free run "
                "bit-for-bit.\n");
    return 0;
  }
  std::printf("MISMATCH: %.17g vs %.17g\n", reference, recovered);
  return 1;
}
