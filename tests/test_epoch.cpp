// Epoch subsystem: version-ring retention/rollback, directory attach and
// crash-reset, env-knob resolution, saturation-driven GC, pinning, the
// refusal of cross-layout reopens, and depth-1 equivalence with the
// paper's two-slot scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "epoch/directory.hpp"
#include "epoch/version_ring.hpp"
#include "nvm/device.hpp"
#include "vmem/container.hpp"

namespace nvmcp::epoch {
namespace {

void fill_pattern(void* dst, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(dst);
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
}

bool check_pattern(const void* src, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto* p = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    if (std::memcmp(p + i, &v, 8) != 0) return false;
  }
  return true;
}

/// RAII env override (knob tests must not leak into other tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

struct Stack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;

  explicit Stack(int ring_depth, std::size_t capacity = 32 * MiB,
                 const std::string& backing_file = {}) {
    NvmConfig cfg;
    cfg.capacity = capacity;
    cfg.throttle = false;
    cfg.backing_file = backing_file;
    dev = std::make_unique<NvmDevice>(cfg);
    cont = std::make_unique<vmem::Container>(*dev);
    alloc::ChunkAllocator::Options opts;
    opts.ring_depth = ring_depth;
    alloc = std::make_unique<alloc::ChunkAllocator>(*cont, opts);
  }
};

TEST(EpochKnobs, ResolutionAndClamping) {
  // Explicit configuration wins over everything.
  EXPECT_EQ(resolve_ring_depth(4), 4u);
  EXPECT_EQ(resolve_gc_floor(3), 3u);
  EXPECT_DOUBLE_EQ(resolve_gc_watermark(0.5), 0.5);
  // Unset env: documented defaults.
  ::unsetenv("NVMCP_EPOCH_RING_DEPTH");
  ::unsetenv("NVMCP_EPOCH_GC_WATERMARK");
  ::unsetenv("NVMCP_EPOCH_GC_FLOOR");
  EXPECT_EQ(resolve_ring_depth(0), 1u);
  EXPECT_DOUBLE_EQ(resolve_gc_watermark(-1), 0.85);
  EXPECT_EQ(resolve_gc_floor(-1), 2u);
  {
    ScopedEnv d("NVMCP_EPOCH_RING_DEPTH", "5");
    ScopedEnv w("NVMCP_EPOCH_GC_WATERMARK", "0.6");
    ScopedEnv f("NVMCP_EPOCH_GC_FLOOR", "3");
    EXPECT_EQ(resolve_ring_depth(0), 5u);
    EXPECT_DOUBLE_EQ(resolve_gc_watermark(-1), 0.6);
    EXPECT_EQ(resolve_gc_floor(-1), 3u);
  }
  {
    // Out-of-range values clamp instead of exploding.
    ScopedEnv d("NVMCP_EPOCH_RING_DEPTH", "99");
    ScopedEnv w("NVMCP_EPOCH_GC_WATERMARK", "7.0");
    EXPECT_EQ(resolve_ring_depth(0), kMaxRingDepth);
    EXPECT_DOUBLE_EQ(resolve_gc_watermark(-1), 1.0);
  }
  EXPECT_EQ(resolve_ring_depth(100), kMaxRingDepth);
}

TEST(VersionRing, RetainsLastNEpochsAndRollsBack) {
  Stack s(/*ring_depth=*/4);
  alloc::Chunk* c = s.alloc->nvalloc("ring", 64 * KiB, true);
  for (std::uint64_t e = 1; e <= 6; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  // Depth 4 guarantees the last 4 epochs stay addressable; between
  // commits the ring's depth+1 slots can hold one more (epoch 2 here --
  // it becomes the reuse victim of the *next* commit). Epoch 1 was
  // reclaimed on slot reuse.
  const auto epochs = s.alloc->retained_epochs(*c);
  ASSERT_EQ(epochs.size(), 5u);
  EXPECT_EQ(epochs[0], 6u);
  EXPECT_EQ(epochs[4], 2u);
  // Every retained epoch restores byte-exact; the newest is a plain kOk,
  // older ones are explicitly stale.
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 6), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 6));
  for (std::uint64_t e = 2; e <= 5; ++e) {
    EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, e), RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), e));
  }
  // A reclaimed epoch is gone, detectably.
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 1), RestoreStatus::kNoData);
  // The record still answers for the newest version (legacy consumers).
  EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 6));
}

TEST(VersionRing, DepthOneKeepsLegacyTwoSlotLayout) {
  Stack s(/*ring_depth=*/1);
  // No directory at depth 1: the legacy path runs with zero ring overhead.
  EXPECT_EQ(s.alloc->epoch_directory(), nullptr);
  EXPECT_EQ(s.alloc->ring_depth(), 1u);
  alloc::Chunk* c = s.alloc->nvalloc("legacy", 64 * KiB, true);
  fill_pattern(c->data(), c->size(), 1);
  s.alloc->checkpoint_chunk(*c, 1);
  const std::uint32_t slot1 = c->record().committed;
  fill_pattern(c->data(), c->size(), 2);
  s.alloc->checkpoint_chunk(*c, 2);
  EXPECT_NE(c->record().committed, slot1);  // two-slot alternation
  EXPECT_EQ(s.alloc->retained_epochs(*c).size(), 1u);
  // Epoch-addressed restore still answers for the newest version...
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 2), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 2));
  // ...and correctly has nothing older.
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 1), RestoreStatus::kNoData);
}

TEST(VersionRing, CommitSequenceMatchesLegacyByteForByte) {
  // Depth-1 equivalence: an identical workload against a ring-depth-1
  // allocator and a default (legacy) allocator must produce identical
  // device images -- the ring code must be completely inert at depth 1.
  NvmConfig cfg;
  cfg.capacity = 8 * MiB;
  cfg.throttle = false;
  NvmDevice dev_a(cfg), dev_b(cfg);
  vmem::Container cont_a(dev_a), cont_b(dev_b);
  alloc::ChunkAllocator::Options depth1;
  depth1.ring_depth = 1;
  alloc::ChunkAllocator alloc_a(cont_a, depth1);
  alloc::ChunkAllocator alloc_b(cont_b);  // default options
  alloc::Chunk* a = alloc_a.nvalloc("eq", 32 * KiB, true);
  alloc::Chunk* b = alloc_b.nvalloc("eq", 32 * KiB, true);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    fill_pattern(a->data(), a->size(), e);
    fill_pattern(b->data(), b->size(), e);
    alloc_a.checkpoint_chunk(*a, e);
    alloc_b.checkpoint_chunk(*b, e);
  }
  EXPECT_EQ(std::memcmp(dev_a.data(), dev_b.data(), cfg.capacity), 0)
      << "ring_depth=1 must reproduce the two-slot device image exactly";
}

TEST(EpochDirectory, AttachResetsInProgressSlots) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_epoch_attach_" +
                         std::to_string(::getpid()) + ".nvm");
  fs::remove(path);
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  cfg.backing_file = path.string();
  const std::uint64_t id = alloc::genid("crashy");
  {
    NvmDevice dev(cfg);
    vmem::Container cont(dev);
    alloc::ChunkAllocator::Options opts;
    opts.ring_depth = 3;
    alloc::ChunkAllocator allocator(cont, opts);
    alloc::Chunk* c = allocator.nvalloc(id, 64 * KiB, true);
    fill_pattern(c->data(), c->size(), 1);
    allocator.checkpoint_chunk(*c, 1);
    // Start a second commit but "crash" before it publishes: the acquire
    // persisted a kInProgress slot.
    fill_pattern(c->data(), c->size(), 2);
    allocator.precopy_chunk(*c, 2);
    auto* ring = allocator.epoch_directory()->ring(id);
    ASSERT_NE(ring, nullptr);
    bool in_progress = false;
    for (const RingSlot& slot : ring->snapshot_slots()) {
      if (slot.state == RingSlot::kInProgress) in_progress = true;
    }
    EXPECT_TRUE(in_progress);
  }
  {
    // Restart: the torn in-progress slot must never be trusted -- the
    // directory resets it to kFree on attach, and epoch 1 still restores.
    NvmDevice dev(cfg);
    ASSERT_TRUE(dev.reopened());
    vmem::Container cont(dev);
    ASSERT_TRUE(cont.attached_existing());
    alloc::ChunkAllocator::Options opts;
    opts.ring_depth = 3;
    alloc::ChunkAllocator allocator(cont, opts);
    alloc::Chunk* c = allocator.nvalloc(id, 64 * KiB, true);
    EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 1));
    auto* ring = allocator.epoch_directory()->ring(id);
    ASSERT_NE(ring, nullptr);
    for (const RingSlot& slot : ring->snapshot_slots()) {
      EXPECT_NE(slot.state, RingSlot::kInProgress);
    }
    EXPECT_EQ(ring->newest_epoch(), 1u);
  }
  fs::remove(path);
}

std::uint64_t file_crc(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return crc64(bytes.data(), bytes.size());
}

TEST(EpochDirectory, CrossLayoutReopenIsRefusedAndWritesNothing) {
  // The two-slot layout (depth 1) and the ring layout (depth > 1) never
  // read each other: reopening at the other layout throws before a byte
  // of the device changes, and the original depth still restores.
  namespace fs = std::filesystem;
  for (const int depth : {1, 4}) {
    SCOPED_TRACE("written at depth " + std::to_string(depth));
    const fs::path path =
        fs::temp_directory_path() /
        ("nvmcp_epoch_layout_" + std::to_string(::getpid()) + "_" +
         std::to_string(depth) + ".nvm");
    fs::remove(path);
    const std::uint64_t seed = 100 * static_cast<std::uint64_t>(depth);
    {
      Stack s(depth, 16 * MiB, path);
      alloc::Chunk* c = s.alloc->nvalloc("layout", 64 * KiB, true);
      for (std::uint64_t e = 1; e <= 3; ++e) {
        fill_pattern(c->data(), c->size(), seed + e);
        s.alloc->checkpoint_chunk(*c, e);
      }
    }
    const std::uint64_t before = file_crc(path);
    EXPECT_THROW(Stack(depth == 1 ? 4 : 1, 16 * MiB, path), NvmcpError);
    EXPECT_EQ(file_crc(path), before) << "a refused reopen wrote the device";
    // The original depth still restores, and so does a ring -> ring depth
    // change, older retained epochs included.
    for (const int again : {depth, depth == 1 ? 1 : 2}) {
      Stack s(again, 16 * MiB, path);
      alloc::Chunk* c = s.alloc->nvalloc("layout", 64 * KiB, true);
      EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
      EXPECT_TRUE(check_pattern(c->data(), c->size(), seed + 3));
      if (again == 1) continue;
      EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 2), RestoreStatus::kOkStale);
      EXPECT_TRUE(check_pattern(c->data(), c->size(), seed + 2));
    }
    fs::remove(path);
  }
}

TEST(EpochGc, ReclaimsOldestFirstDownToTheFloorNeverTheNewest) {
  Stack s(/*ring_depth=*/8, 4 * MiB);
  alloc::Chunk* c = s.alloc->nvalloc("hoarder", 256 * KiB, true);
  for (std::uint64_t e = 1; e <= 8; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  auto* dir = s.alloc->epoch_directory();
  ASSERT_NE(dir, nullptr);
  ASSERT_EQ(s.alloc->retained_epochs(*c).size(), 8u);
  const double occ_before = dir->occupancy();

  // Below the watermark the pass is a no-op.
  GcPassStats idle = dir->gc_pass(/*watermark=*/1.0, /*floor=*/2);
  EXPECT_FALSE(idle.saturated);
  EXPECT_EQ(idle.slots_reclaimed, 0u);
  EXPECT_EQ(s.alloc->retained_epochs(*c).size(), 8u);

  // Saturated: reclaim oldest-first, stop at the floor even though the
  // watermark is still exceeded.
  GcPassStats st = dir->gc_pass(/*watermark=*/0.01, /*floor=*/2);
  EXPECT_TRUE(st.saturated);
  EXPECT_EQ(st.slots_reclaimed, 6u);
  EXPECT_GT(st.bytes_reclaimed, 0u);
  EXPECT_LT(st.occupancy_after, st.occupancy_before);
  EXPECT_LT(dir->occupancy(), occ_before);
  const auto epochs = s.alloc->retained_epochs(*c);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 8u);  // the newest epoch is never reclaimed
  EXPECT_EQ(epochs[1], 7u);
  // The survivors still restore byte-exact.
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 7), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 7));
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 5), RestoreStatus::kNoData);
}

TEST(EpochGc, PinnedEpochsSurviveSaturation) {
  Stack s(/*ring_depth=*/6, 4 * MiB);
  alloc::Chunk* c = s.alloc->nvalloc("pinned", 256 * KiB, true);
  for (std::uint64_t e = 1; e <= 6; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  auto* dir = s.alloc->epoch_directory();
  // Pin epoch 2 (as a streaming restore would), then saturate hard with a
  // floor of 1: everything unpinned except the newest goes.
  s.alloc->pin_epoch(*c, 2);
  dir->gc_pass(/*watermark=*/0.01, /*floor=*/1);
  auto epochs = s.alloc->retained_epochs(*c);
  EXPECT_NE(std::find(epochs.begin(), epochs.end(), 2u), epochs.end())
      << "the GC reclaimed a pinned restore source";
  EXPECT_EQ(epochs[0], 6u);
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 2), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 2));
  // Unpinned, the next saturated pass may take it.
  s.alloc->unpin_epoch(*c, 2);
  dir->gc_pass(/*watermark=*/0.01, /*floor=*/1);
  epochs = s.alloc->retained_epochs(*c);
  EXPECT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0], 6u);
}

TEST(EpochGc, WatermarkRespectsOtherChunksSharingTheDevice) {
  // Two chunks on one device: the pass reclaims globally-oldest slots
  // across chunks, and every chunk keeps its floor.
  Stack s(/*ring_depth=*/4, 4 * MiB);
  alloc::Chunk* a = s.alloc->nvalloc("a", 128 * KiB, true);
  alloc::Chunk* b = s.alloc->nvalloc("b", 128 * KiB, true);
  for (std::uint64_t e = 1; e <= 4; ++e) {
    fill_pattern(a->data(), a->size(), 10 + e);
    fill_pattern(b->data(), b->size(), 20 + e);
    s.alloc->checkpoint_chunk(*a, e);
    s.alloc->checkpoint_chunk(*b, e);
  }
  auto* dir = s.alloc->epoch_directory();
  dir->gc_pass(/*watermark=*/0.01, /*floor=*/2);
  EXPECT_EQ(s.alloc->retained_epochs(*a).size(), 2u);
  EXPECT_EQ(s.alloc->retained_epochs(*b).size(), 2u);
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*a, 3), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(a->data(), a->size(), 13));
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*b, 3), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(b->data(), b->size(), 23));
}

TEST(VersionRing, CorruptedNewestSlotIsDetectedNotLaundered) {
  // The PR-6 laundering gap, closed: corrupt a committed slot in place,
  // then run an incremental-style commit cycle and a restore. The
  // corruption must surface as a detected failure or a rollback -- never
  // as a silently-wrong success.
  Stack s(/*ring_depth=*/3);
  alloc::Chunk* c = s.alloc->nvalloc("flip", 64 * KiB, true);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  // Flip a byte in the newest committed slot's payload on the device.
  const vmem::ChunkRecord& rec = c->record();
  s.dev->data()[rec.slot_off[rec.committed] + 100] ^= std::byte{0xFF};
  // The newest epoch now fails verification...
  fill_pattern(c->data(), c->size(), 99);
  EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kChecksumMismatch);
  // ...but older retained epochs still recover the chunk byte-exact.
  EXPECT_EQ(s.alloc->restore_chunk_epoch(*c, 2), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 2));
}

TEST(VersionRing, RingSlotCountIsBounded) {
  // A long commit history cycles slots instead of growing: allocated
  // payload regions never exceed depth + 1.
  Stack s(/*ring_depth=*/3);
  alloc::Chunk* c = s.alloc->nvalloc("cycler", 32 * KiB, true);
  for (std::uint64_t e = 1; e <= 20; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
    auto* ring = s.alloc->epoch_directory()->ring(c->id());
    ASSERT_NE(ring, nullptr);
    EXPECT_LE(ring->allocated_slots(), 4u) << "epoch " << e;
  }
  const auto epochs = s.alloc->retained_epochs(*c);
  ASSERT_EQ(epochs.size(), 4u);  // depth + the next reuse victim
  EXPECT_EQ(epochs[0], 20u);
  EXPECT_EQ(epochs[3], 17u);
}

}  // namespace
}  // namespace nvmcp::epoch
