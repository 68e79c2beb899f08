// Ablation: eager vs lazy restart.
//
// The paper's future work: "considering the fact that read speeds of NVMs
// are comparable to DRAM, we plan to further optimize our recovery
// mechanism." Lazy restore maps checkpointed chunks PROT_NONE and copies
// each one in on first touch, so restart latency is O(data actually
// touched) instead of O(checkpoint size) -- a large win when an
// application only warms part of its state before resuming (or when a
// quick-look tool inspects one variable of a big checkpoint).
#include <cstring>
#include <memory>

#include "alloc/nvmalloc.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace {

using namespace nvmcp;

constexpr int kChunks = 24;
constexpr std::size_t kChunkBytes = 4 * MiB;

struct Stack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> allocator;
  std::vector<alloc::Chunk*> chunks;

  Stack() {
    NvmConfig cfg;
    cfg.capacity = 512 * MiB;
    cfg.throttle = true;  // realistic NVM read path
    dev = std::make_unique<NvmDevice>(cfg);
    container = std::make_unique<vmem::Container>(*dev);
    allocator = std::make_unique<alloc::ChunkAllocator>(*container);
    Rng rng(1);
    for (int i = 0; i < kChunks; ++i) {
      alloc::Chunk* c = allocator->nvalloc(
          "state_" + std::to_string(i), kChunkBytes, true);
      auto* p = static_cast<std::uint64_t*>(c->data());
      for (std::size_t w = 0; w < kChunkBytes / 8; ++w) {
        p[w] = rng.next_u64();
      }
      allocator->checkpoint_chunk(*c, 1);
      chunks.push_back(c);
    }
  }
};

}  // namespace

int main() {
  TableWriter table(
      "Ablation: eager vs lazy restart (24 chunks x 4 MiB = 96 MiB "
      "checkpoint; paper future work: exploit NVM read speed)",
      {"strategy", "restart latency", "data moved at restart",
       "time until 25% of chunks usable"},
      "ablation_lazy_restore.csv");

  // Eager: restore everything before the application resumes.
  {
    Stack s;
    const auto read0 = s.dev->stats().bytes_read;
    const Stopwatch sw;
    for (alloc::Chunk* c : s.chunks) s.allocator->restore_chunk(*c);
    const double full = sw.elapsed();
    table.row({"eager (restore_chunk)", format_seconds(full),
               format_bytes(static_cast<double>(s.dev->stats().bytes_read -
                                                read0)),
               format_seconds(full)});
  }

  // Lazy: arm everything instantly; chunks materialize on first touch.
  {
    Stack s;
    const auto read0 = s.dev->stats().bytes_read;
    const Stopwatch arm_sw;
    for (alloc::Chunk* c : s.chunks) s.allocator->restore_chunk_lazy(*c);
    const double arm = arm_sw.elapsed();

    // The application resumes and touches a quarter of its state.
    const Stopwatch touch_sw;
    for (int i = 0; i < kChunks / 4; ++i) {
      volatile std::byte b =
          static_cast<const std::byte*>(s.chunks[static_cast<std::size_t>(
              i)]->data())[0];
      (void)b;
    }
    const double quarter = arm + touch_sw.elapsed();
    // Lazy copies go through the fault handler (plain loads from the NVM
    // arena), so count them via the touched chunks.
    const double moved =
        static_cast<double>(kChunks / 4) * kChunkBytes;
    (void)read0;
    table.row({"lazy (restore-on-touch)", format_seconds(arm),
               format_bytes(moved) + " (25% touched)",
               format_seconds(quarter)});
  }
  table.print();
  std::printf("\nExpected shape: lazy restart returns control almost "
              "immediately and pays per chunk on first touch; eager "
              "restart pays the full checkpoint read up front.\n");
  return 0;
}
