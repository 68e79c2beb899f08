// Ablation: remote redundancy policy -- full buddy replication vs
// Reed-Solomon parity groups.
//
// Replication (the paper's remote checkpoint and Zheng et al.'s buddy
// scheme) ships k x D bytes per remote checkpoint and recovers any number
// of lost nodes independently. A RS(k, m) parity group (Plank et al.'s
// diskless checkpointing, cited in the paper's related work) ships only
// m x D bytes -- a k/m reduction in interconnect traffic and remote NVM --
// but tolerates at most m simultaneous node losses and needs the
// survivors' local NVM at recovery.
#include <cstring>
#include <memory>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/remote.hpp"
#include "ecc/parity_group.hpp"

namespace {

using namespace nvmcp;

struct Cluster {
  static constexpr int kRanks = 6;
  static constexpr std::size_t kChunkBytes = 2 * MiB;
  static constexpr int kChunks = 4;

  net::Interconnect link{2.0e9 / 8.0, 0.1};
  std::vector<std::unique_ptr<NvmDevice>> devices;
  std::vector<std::unique_ptr<vmem::Container>> containers;
  std::vector<std::unique_ptr<alloc::ChunkAllocator>> allocators;
  std::vector<std::unique_ptr<core::CheckpointManager>> managers;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> remote;

  Cluster() {
    for (int r = 0; r < kRanks; ++r) {
      NvmConfig cfg;
      cfg.capacity = 64 * MiB;
      cfg.throttle = false;
      devices.push_back(std::make_unique<NvmDevice>(cfg));
      containers.push_back(
          std::make_unique<vmem::Container>(*devices.back()));
      allocators.push_back(
          std::make_unique<alloc::ChunkAllocator>(*containers.back()));
      core::CheckpointConfig ccfg;
      ccfg.rank = static_cast<std::uint32_t>(r);
      managers.push_back(std::make_unique<core::CheckpointManager>(
          *allocators.back(), ccfg));
    }
    NvmConfig scfg;
    scfg.capacity = 256 * MiB;
    scfg.throttle = false;
    store = std::make_unique<net::RemoteStore>(scfg);
    remote = std::make_unique<net::RemoteMemory>(link, *store);
  }

  void compute_and_checkpoint(std::uint64_t seed) {
    Rng rng(seed);
    for (int r = 0; r < kRanks; ++r) {
      for (int c = 0; c < kChunks; ++c) {
        const std::string name = "var_" + std::to_string(c);
        alloc::Chunk* chunk =
            allocators[static_cast<std::size_t>(r)]->find(
                alloc::genid(name));
        if (!chunk) {
          chunk = allocators[static_cast<std::size_t>(r)]->nvalloc(
              name, kChunkBytes, true);
        }
        auto* p = static_cast<std::uint64_t*>(chunk->data());
        for (std::size_t i = 0; i < kChunkBytes / 8; ++i) {
          p[i] = rng.next_u64();
        }
      }
      managers[static_cast<std::size_t>(r)]->nvchkptall();
    }
  }

  std::vector<core::CheckpointManager*> manager_ptrs() {
    std::vector<core::CheckpointManager*> out;
    for (auto& m : managers) out.push_back(m.get());
    return out;
  }
};

}  // namespace

int main() {
  TableWriter table(
      "Ablation: remote redundancy -- replication vs RS parity groups "
      "(k=6 ranks, 8 MiB checkpoint state per rank)",
      {"policy", "remote bytes/epoch", "vs replication", "protect time",
       "tolerates", "recovery of 2 ranks"},
      "ablation_erasure.csv");

  // Replication baseline via the RemoteCheckpointer.
  {
    Cluster cl;
    cl.compute_and_checkpoint(1);
    core::RemoteConfig rcfg;
    rcfg.policy = core::PrecopyPolicy::kNone;
    core::RemoteCheckpointer repl(cl.manager_ptrs(), *cl.remote, rcfg);
    const Stopwatch sw;
    repl.coordinate_now();
    const double secs = sw.elapsed();
    const auto bytes = repl.metrics().counter("remote.bytes_sent").value();
    table.row({"replication", format_bytes(static_cast<double>(bytes)),
               "100%", format_seconds(secs), "any # of nodes",
               "restart_after(kHard)"});
  }

  for (const int m : {1, 2, 3}) {
    Cluster cl;
    cl.compute_and_checkpoint(1);
    ecc::ParityCheckpointGroup group(cl.manager_ptrs(), *cl.remote, m);
    const Stopwatch sw;
    const std::size_t bytes = group.protect_epoch();
    const double secs = sw.elapsed();

    // Lose min(m, 2) ranks and prove recovery end to end.
    std::vector<std::size_t> lost;
    for (int i = 0; i < std::min(m, 2); ++i) {
      lost.push_back(static_cast<std::size_t>(i * 2 + 1));
    }
    for (const std::size_t r : lost) {
      for (alloc::Chunk* c : cl.allocators[r]->chunks()) {
        std::memset(c->data(), 0xEE, c->size());
        const auto& rec = c->record();
        cl.devices[r]->data()[rec.slot_off[0]] ^= std::byte{0xFF};
        cl.devices[r]->data()[rec.slot_off[1]] ^= std::byte{0xFF};
      }
    }
    const bool recovered = group.recover_ranks(lost);

    const double vs = static_cast<double>(bytes) /
                      static_cast<double>(
                          group.stats().replication_bytes_equiv);
    table.row({"RS(6," + std::to_string(m) + ")",
               format_bytes(static_cast<double>(bytes)),
               TableWriter::pct(vs), format_seconds(secs),
               std::to_string(m) + " node(s)",
               recovered && lost.size() == 2 ? "ok (2 ranks rebuilt)"
               : recovered                   ? "ok"
                                             : "FAILED"});
  }
  table.print();
  std::printf("\nTradeoff: parity ships m/k of the replication bytes but "
              "tolerates only m simultaneous losses and needs survivors' "
              "local NVM at recovery.\n");
  return 0;
}
