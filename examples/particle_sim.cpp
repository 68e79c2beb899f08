// particle_sim: a GTC-flavoured particle-in-cell mini-app demonstrating
// multilevel checkpointing -- delayed pre-copy with prediction (DCPCP) for
// the local level and an asynchronous helper shipping committed
// checkpoints to a buddy node's NVM over a shared interconnect.
//
// The scenario ends with a "node loss": both local NVM version slots are
// corrupted, and the application restores from the remote store.
#include <cmath>
#include <cstdio>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"
#include "core/manager.hpp"
#include "core/remote.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace nvmcp;

constexpr std::size_t kParticles = 200000;
constexpr int kIterations = 10;
constexpr int kCheckpointEvery = 2;

struct Particles {
  alloc::Chunk* pos;
  alloc::Chunk* vel;
  alloc::Chunk* field;  // "static" background field: written once

  double* x;
  double* v;
  double* e;

  explicit Particles(alloc::ChunkAllocator& allocator) {
    pos = allocator.nvalloc("zion_pos", kParticles * 8, true);
    vel = allocator.nvalloc("zion_vel", kParticles * 8, true);
    field = allocator.nvalloc("background_field", 512 * KiB, true);
    x = pos->as<double>();
    v = vel->as<double>();
    e = field->as<double>();
  }

  void initialize(Rng& rng) {
    for (std::size_t i = 0; i < kParticles; ++i) {
      x[i] = rng.uniform(0.0, 1.0);
      v[i] = rng.normal(0.0, 0.05);
    }
    for (std::size_t i = 0; i < 512 * KiB / 8; ++i) {
      e[i] = std::sin(static_cast<double>(i) * 1e-3);
    }
  }

  void push(int iter) {
    // Leapfrog push against the static field; positions and velocities
    // change every iteration, the field never does after initialization
    // (so checkpoint tracking will skip it -- the Fig 8 effect).
    const std::size_t cells = 512 * KiB / 8;
    for (std::size_t i = 0; i < kParticles; ++i) {
      const auto cell =
          static_cast<std::size_t>(std::fabs(x[i]) * 1000.0) % cells;
      v[i] += 0.001 * e[cell];
      x[i] += v[i];
      if (x[i] < 0.0 || x[i] > 1.0) v[i] = -v[i];
    }
    (void)iter;
  }

  double energy() const {
    double sum = 0;
    for (std::size_t i = 0; i < kParticles; ++i) sum += v[i] * v[i];
    return 0.5 * sum;
  }
};

}  // namespace

int main() {
  nvmcp::telemetry::init_from_env();
  // Local NVM stack.
  NvmConfig ncfg;
  ncfg.capacity = 64 * MiB;
  ncfg.throttle = false;
  NvmDevice device(ncfg);
  vmem::Container container(device);
  alloc::ChunkAllocator allocator(container);

  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kDcpcp;
  ccfg.nvm_bw_per_core = 800.0 * MiB;
  core::CheckpointManager manager(allocator, ccfg);

  // Buddy node reachable over a 5 GB/s fabric.
  net::Interconnect link(5.0e9, 0.05);
  NvmConfig rcfg;
  rcfg.capacity = 64 * MiB;
  net::RemoteStore buddy(rcfg);
  net::RemoteMemory remote(link, buddy);
  core::RemoteConfig remote_cfg;
  remote_cfg.policy = core::PrecopyPolicy::kCpc;
  remote_cfg.interval = 0.4;
  remote_cfg.scan_period = 2e-3;
  core::RemoteCheckpointer helper({&manager}, remote, remote_cfg);

  manager.start();
  helper.start();

  Rng rng(2026);
  Particles particles(allocator);
  particles.initialize(rng);

  std::printf("pushing %zu particles for %d iterations "
              "(checkpoint every %d):\n",
              kParticles, kIterations, kCheckpointEvery);
  for (int iter = 1; iter <= kIterations; ++iter) {
    particles.push(iter);
    if (iter % kCheckpointEvery == 0) {
      const double blocking = manager.nvchkptall();
      std::printf("  iter %2d: energy=%.4f, checkpoint %s (epoch %llu)\n",
                  iter, particles.energy(),
                  format_seconds(blocking).c_str(),
                  static_cast<unsigned long long>(manager.committed_epoch()));
    }
  }
  const double energy_before = particles.energy();

  helper.coordinate_now();  // seal the remote cut
  helper.stop();
  manager.stop();

  // Disaster: the whole node's NVM is corrupted (every ring slot of every
  // chunk), then the job is restarted from the buddy.
  for (alloc::Chunk* c : allocator.chunks()) {
    for (const epoch::RingSlot& slot :
         allocator.epoch_directory()->ring(c->id())->snapshot_slots()) {
      if (slot.off) device.data()[slot.off] ^= std::byte{0xFF};
    }
  }
  for (std::size_t i = 0; i < kParticles; ++i) particles.x[i] = -1;

  const RestoreStatus st =
      core::RestartCoordinator(manager, &remote)
          .restart_after(core::FailureKind::kSoft)
          .status;
  std::printf("\nnode lost; restore from buddy: %s\n", to_string(st));
  std::printf("energy after remote restore: %.4f (before: %.4f)\n",
              particles.energy(), energy_before);

  auto& hm = helper.metrics();
  std::printf("helper shipped %s in %llu pre-copy puts + %llu coordinated "
              "puts; peak link usage %s\n",
              format_bytes(static_cast<double>(
                               hm.counter("remote.bytes_sent").value()))
                  .c_str(),
              static_cast<unsigned long long>(
                  hm.counter("remote.precopy_puts").value()),
              static_cast<unsigned long long>(
                  hm.counter("remote.coordinated_puts").value()),
              format_bandwidth(link.peak_checkpoint_rate()).c_str());

  nvmcp::telemetry::flush_trace();
  return st == RestoreStatus::kOkFromRemote ? 0 : 1;
}
