#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/error.hpp"
#include "epoch/directory.hpp"
#include "vmem/container.hpp"

namespace nvmcp::vmem {
namespace {

NvmConfig cfg(std::size_t cap = 8 * MiB) {
  NvmConfig c;
  c.capacity = cap;
  c.throttle = false;
  return c;
}

TEST(Container, FreshDeviceGetsFreshMetadata) {
  NvmDevice dev(cfg());
  Container c(dev);
  EXPECT_FALSE(c.attached_existing());
  EXPECT_GT(dev.root(), 0u);
}

TEST(Container, AllocationsArePageAlignedAndDisjoint) {
  NvmDevice dev(cfg());
  Container c(dev);
  const std::size_t a = c.alloc_region(100);
  const std::size_t b = c.alloc_region(5000);
  const std::size_t d = c.alloc_region(1);
  EXPECT_TRUE(is_aligned(a, kNvmPageSize));
  EXPECT_TRUE(is_aligned(b, kNvmPageSize));
  EXPECT_TRUE(is_aligned(d, kNvmPageSize));
  EXPECT_GE(b, a + kNvmPageSize);
  EXPECT_GE(d, b + 2 * kNvmPageSize);
}

TEST(Container, FreedRegionsAreReused) {
  NvmDevice dev(cfg());
  Container c(dev);
  const std::size_t a = c.alloc_region(64 * KiB);
  c.free_region(a, 64 * KiB);
  const std::size_t b = c.alloc_region(32 * KiB);
  EXPECT_EQ(b, a);  // first fit reuses the freed block
  const std::size_t d = c.alloc_region(32 * KiB);
  EXPECT_EQ(d, a + 32 * KiB);  // remainder of the split block
}

TEST(Container, ExhaustionThrows) {
  NvmDevice dev(cfg(1 * MiB));
  Container c(dev);
  EXPECT_THROW(c.alloc_region(4 * MiB), NvmcpError);
}

TEST(Container, AccountingTracksUse) {
  NvmDevice dev(cfg());
  Container c(dev);
  const std::size_t before = c.bytes_allocated();
  c.alloc_region(128 * KiB);
  EXPECT_EQ(c.bytes_allocated(), before + 128 * KiB);
  EXPECT_LE(c.bytes_free(), dev.capacity() - 128 * KiB);
}

TEST(Container, CursorPersistsAcrossAttach) {
  NvmDevice dev(cfg());
  std::size_t a;
  {
    Container c(dev);
    a = c.alloc_region(64 * KiB);
  }
  // Same device (still open): attach path via a second container requires
  // reopened(); emulate by checking the metadata cursor moved.
  MetadataRegion meta = MetadataRegion::attach(dev);
  EXPECT_GE(meta.header().alloc_cursor, a + 64 * KiB);
}

// Regions freed before a reopen are free after it: the free list lives in
// DRAM, and attach rebuilds it from the chunk records instead of counting
// the whole cursor as reserved.
TEST(Container, FreeListIsRebuiltAtAttach) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_container_free_" +
                         std::to_string(::getpid()) + ".nvm");
  fs::remove(path);
  NvmConfig c = cfg(32 * MiB);
  c.backing_file = path.string();
  alloc::ChunkAllocator::Options opts;
  opts.ring_depth = 8;
  auto holds_epoch = [](const alloc::Chunk& ch, std::uint64_t e) {
    const auto* p = static_cast<const unsigned char*>(ch.data());
    return std::all_of(p, p + ch.size(),
                       [e](unsigned char b) { return b == (e & 0xff); });
  };
  std::uint64_t reserved = 0;
  std::size_t cursor = 0;
  {
    NvmDevice dev(c);
    Container cont(dev);
    alloc::ChunkAllocator allocator(cont, opts);
    alloc::Chunk* ch = allocator.nvalloc("slots", 1 * MiB, true);
    for (std::uint64_t e = 1; e <= 9; ++e) {
      std::memset(ch->data(), static_cast<int>(e), ch->size());
      allocator.checkpoint_chunk(*ch, e);
    }
    const epoch::GcPassStats gc =
        allocator.epoch_directory()->gc_pass(/*watermark=*/0.0, /*floor=*/2);
    ASSERT_EQ(gc.slots_reclaimed, 7u);
    ASSERT_EQ(allocator.retained_epochs(*ch),
              std::vector<std::uint64_t>({9, 8}));
    reserved = dev.reserved_bytes();
    cursor = cont.metadata().header().alloc_cursor;
    ASSERT_EQ(reserved, cursor - 7 * MiB);  // header + metadata + 2 slots
  }
  NvmDevice dev(c);
  ASSERT_TRUE(dev.reopened());
  Container cont(dev);
  ASSERT_TRUE(cont.attached_existing());
  EXPECT_EQ(dev.reserved_bytes(), reserved) << "freed slots counted as held";
  EXPECT_EQ(cont.bytes_allocated(), reserved);
  alloc::ChunkAllocator allocator(cont, opts);
  alloc::Chunk* ch = allocator.nvalloc("slots", 1 * MiB, true);
  EXPECT_EQ(ch->restore_status(), RestoreStatus::kOk);
  EXPECT_TRUE(holds_epoch(*ch, 9));
  // Seven more slots fit in the seven freed regions: the cursor stays put.
  for (std::uint64_t e = 10; e <= 16; ++e) {
    std::memset(ch->data(), static_cast<int>(e), ch->size());
    allocator.checkpoint_chunk(*ch, e);
  }
  EXPECT_EQ(cont.metadata().header().alloc_cursor, cursor);
  EXPECT_EQ(dev.reserved_bytes(), cursor);
  // No live region went on the free list: both epochs committed before the
  // reopen still restore byte-exact after seven new slots were filled.
  for (const std::uint64_t e : {8u, 9u}) {
    EXPECT_EQ(allocator.restore_chunk(*ch, e), RestoreStatus::kOkStale)
        << "epoch " << e;
    EXPECT_TRUE(holds_epoch(*ch, e)) << "epoch " << e;
  }
  fs::remove(path);
}

}  // namespace
}  // namespace nvmcp::vmem
