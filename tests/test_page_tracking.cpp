// Page-level write tracking (the ablation the paper argues against):
// per-page faults, dirty pages collected as coalesced byte ranges,
// incremental range copies with the coverage fallback, and correctness of
// checkpoints built from page deltas.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstring>

#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"
#include "core/manager.hpp"
#include "core/restart.hpp"
#include "vmem/protection.hpp"

namespace nvmcp {
namespace {

TEST(PageTracking, EachPageFaultsIndividually) {
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  void* buf = ::mmap(nullptr, 8 * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(buf, MAP_FAILED);
  vmem::WriteTracker tracker;
  auto& mgr = vmem::ProtectionManager::instance();
  const int h = mgr.register_range(buf, 8 * page, &tracker,
                                   vmem::TrackMode::kMprotectPage);
  mgr.protect(h);

  auto* p = static_cast<std::byte*>(buf);
  p[0 * page] = std::byte{1};
  p[3 * page] = std::byte{1};
  p[3 * page + 100] = std::byte{1};  // same page: no extra fault
  p[4 * page + 8] = std::byte{1};    // next page: its own fault
  p[7 * page] = std::byte{1};

  EXPECT_EQ(tracker.faults.load(), 4u);
  // Dirty pages come back as byte ranges, adjacent pages coalesced:
  // pages [0,1), [3,5) and [7,8).
  const auto dirty = mgr.collect_dirty_ranges(h);
  EXPECT_FALSE(dirty.whole);
  ASSERT_EQ(dirty.ranges.size(), 3u);
  EXPECT_EQ(dirty.ranges[0].off, 0 * page);
  EXPECT_EQ(dirty.ranges[0].len, 1 * page);
  EXPECT_EQ(dirty.ranges[1].off, 3 * page);
  EXPECT_EQ(dirty.ranges[1].len, 2 * page);
  EXPECT_EQ(dirty.ranges[2].off, 7 * page);
  EXPECT_EQ(dirty.ranges[2].len, 1 * page);
  // Drained: second collection is empty.
  EXPECT_TRUE(mgr.collect_dirty_ranges(h).ranges.empty());

  mgr.unprotect(h);
  mgr.unregister_range(h);
  ::munmap(buf, 8 * page);
}

TEST(PageTracking, PageModeFaultsMoreThanChunkMode) {
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  const std::size_t pages = 32;
  auto& mgr = vmem::ProtectionManager::instance();

  for (const auto mode : {vmem::TrackMode::kMprotect,
                          vmem::TrackMode::kMprotectPage}) {
    void* buf = ::mmap(nullptr, pages * page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(buf, MAP_FAILED);
    vmem::WriteTracker tracker;
    const int h = mgr.register_range(buf, pages * page, &tracker, mode);
    mgr.protect(h);
    auto* p = static_cast<std::byte*>(buf);
    for (std::size_t i = 0; i < pages; ++i) p[i * page] = std::byte{1};
    // Chunk mode: one fault total; page mode: one per page.
    EXPECT_EQ(tracker.faults.load(),
              mode == vmem::TrackMode::kMprotect ? 1u : pages);
    mgr.unprotect(h);
    mgr.unregister_range(h);
    ::munmap(buf, pages * page);
  }
}

class PagedAllocTest : public ::testing::Test {
 protected:
  PagedAllocTest() {
    NvmConfig cfg;
    cfg.capacity = 32 * MiB;
    cfg.throttle = false;
    dev_ = std::make_unique<NvmDevice>(cfg);
    container_ = std::make_unique<vmem::Container>(*dev_);
    alloc::ChunkAllocator::Options opts;
    opts.track_mode = vmem::TrackMode::kMprotectPage;
    allocator_ =
        std::make_unique<alloc::ChunkAllocator>(*container_, opts);
  }

  void fill(alloc::Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    auto* p = static_cast<std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p + i, &v, 8);
    }
  }

  std::unique_ptr<NvmDevice> dev_;
  std::unique_ptr<vmem::Container> container_;
  std::unique_ptr<alloc::ChunkAllocator> allocator_;
};

TEST_F(PagedAllocTest, FullRoundTripThroughPagedCopies) {
  alloc::Chunk* c = allocator_->nvalloc("paged", 64 * KiB, true);
  fill(*c, 1);
  allocator_->checkpoint_chunk(*c, 1);
  fill(*c, 2);
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
  Rng rng(1);
  const auto* p = static_cast<const std::byte*>(c->data());
  for (std::size_t i = 0; i + 8 <= c->size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    ASSERT_EQ(0, std::memcmp(p + i, &v, 8)) << "offset " << i;
  }
}

TEST_F(PagedAllocTest, SecondCheckpointCopiesOnlyDirtyPages) {
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  alloc::Chunk* c = allocator_->nvalloc("delta", 16 * page, true);
  fill(*c, 1);
  allocator_->checkpoint_chunk(*c, 1);  // slot A: full initial copy
  allocator_->checkpoint_chunk(*c, 2);  // slot B: full initial copy

  // Touch exactly one page; the next checkpoint targets slot A again,
  // whose pending set now holds only that page (slots accumulate deltas
  // independently, so a slot two epochs behind would need both epochs').
  // Then the same store followed by log_write, which application code may
  // call under any mode: the fault already recorded the store, so the
  // next checkpoint (slot B) still moves one page.
  std::uint64_t epoch = 3;
  for (const bool logged : {false, true}) {
    const NvmDeviceStats before = dev_->stats();
    static_cast<std::byte*>(c->data())[5 * page + 9] =
        std::byte{static_cast<unsigned char>(0x77 + epoch)};
    if (logged) c->log_write(5 * page + 9, 1);
    allocator_->checkpoint_chunk(*c, epoch++);
    const NvmDeviceStats after = dev_->stats();
    const auto delta = after.bytes_written - before.bytes_written;
    EXPECT_LT(delta, 3 * page)
        << "one dirty page should move ~one page (logged=" << logged << ")";
    EXPECT_EQ(after.write_calls - before.write_calls, 1u);
  }

  // And the restored image is still exact.
  auto restores_exactly = [&](alloc::ChunkAllocator& a, alloc::Chunk& ch) {
    std::vector<std::byte> snapshot(ch.size());
    std::memcpy(snapshot.data(), ch.data(), ch.size());
    fill(ch, 9);
    EXPECT_EQ(a.restore_chunk(ch), RestoreStatus::kOk);
    EXPECT_EQ(0, std::memcmp(ch.data(), snapshot.data(), ch.size()));
  };
  restores_exactly(*allocator_, *c);

  // Sparse runs below the coverage threshold (4 of 16 pages) still make
  // one device write: the commit hands every run to one vectored write.
  alloc::Chunk* sparse = allocator_->nvalloc("sparse", 16 * page, true);
  fill(*sparse, 2);
  allocator_->checkpoint_chunk(*sparse, 1);
  allocator_->checkpoint_chunk(*sparse, 2);
  for (const std::size_t pg : {1, 5, 9, 12}) {
    static_cast<std::byte*>(sparse->data())[pg * page + 33] = std::byte{7};
  }
  const NvmDeviceStats s0 = dev_->stats();
  allocator_->checkpoint_chunk(*sparse, 3);
  const NvmDeviceStats s1 = dev_->stats();
  EXPECT_EQ(s1.write_calls - s0.write_calls, 1u);
  EXPECT_GE(s1.bytes_written - s0.bytes_written, 4 * page);
  EXPECT_LT(s1.bytes_written - s0.bytes_written, 5 * page);
  restores_exactly(*allocator_, *sparse);

  // The write log's ranges take the same path: three logged stores, one
  // device write.
  NvmConfig cfg;
  cfg.capacity = 8 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container cont(dev);
  alloc::ChunkAllocator::Options opts;
  opts.track_mode = vmem::TrackMode::kWriteLog;
  alloc::ChunkAllocator logged(cont, opts);
  alloc::Chunk* lc = logged.nvalloc("logged", 16 * page, true);
  fill(*lc, 3);
  lc->log_write(0, lc->size());
  logged.checkpoint_chunk(*lc, 1);
  logged.checkpoint_chunk(*lc, 2);
  for (const std::size_t off : {std::size_t{64}, 6 * page, 11 * page + 8}) {
    std::memset(static_cast<std::byte*>(lc->data()) + off, 0x5c, 64);
    lc->log_write(off, 64);
  }
  const NvmDeviceStats l0 = dev.stats();
  logged.checkpoint_chunk(*lc, 3);
  const NvmDeviceStats l1 = dev.stats();
  EXPECT_EQ(l1.write_calls - l0.write_calls, 1u);
  EXPECT_LT(l1.bytes_written - l0.bytes_written, page);
  restores_exactly(logged, *lc);
}

TEST_F(PagedAllocTest, DenseDirtyPagesCommitInOneDeviceWrite) {
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  alloc::Chunk* c = allocator_->nvalloc("dense", 16 * page, true);
  fill(*c, 1);
  allocator_->checkpoint_chunk(*c, 1);  // slot A: full initial copy
  allocator_->checkpoint_chunk(*c, 2);  // slot B: full initial copy

  // Dirty 10 of 16 pages, non-adjacent runs included: past the coverage
  // threshold (half the chunk) one whole-chunk write beats six range
  // writes.
  auto* p = static_cast<std::byte*>(c->data());
  for (const std::size_t pg : {0, 1, 2, 4, 5, 7, 9, 10, 12, 15}) {
    p[pg * page + 17] = static_cast<std::byte>(pg + 1);
  }
  const NvmDeviceStats before = dev_->stats();
  allocator_->checkpoint_chunk(*c, 3);
  const NvmDeviceStats after = dev_->stats();
  EXPECT_EQ(after.write_calls - before.write_calls, 1u);
  // The whole payload moved (plus the record's in-place metadata bytes).
  EXPECT_GE(after.bytes_written - before.bytes_written, c->size());

  std::vector<std::byte> snapshot(c->size());
  std::memcpy(snapshot.data(), c->data(), c->size());
  fill(*c, 9);
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_EQ(0, std::memcmp(c->data(), snapshot.data(), c->size()));
}

TEST_F(PagedAllocTest, AlternatingSlotsEachReceiveDeltas) {
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  alloc::Chunk* c = allocator_->nvalloc("slots", 8 * page, true);
  // Four checkpoints with a different page touched each time; every
  // restore must be exact even though slots alternate.
  fill(*c, 0);
  allocator_->checkpoint_chunk(*c, 1);
  for (std::uint64_t e = 2; e <= 5; ++e) {
    static_cast<std::byte*>(
        c->data())[(e % 8) * page + 3] = static_cast<std::byte>(e);
    std::vector<std::byte> snapshot(c->size());
    std::memcpy(snapshot.data(), c->data(), c->size());
    allocator_->checkpoint_chunk(*c, e);
    fill(*c, 999 + e);  // scribble
    EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
    EXPECT_EQ(0, std::memcmp(c->data(), snapshot.data(), c->size()))
        << "epoch " << e;
  }
}

TEST_F(PagedAllocTest, ManagerWorksInPageMode) {
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  core::CheckpointManager mgr(*allocator_, ccfg);
  alloc::Chunk* c = allocator_->nvalloc("mgr_paged", 64 * KiB, true);
  fill(*c, 4);
  mgr.nvchkptall();
  fill(*c, 5);
  mgr.nvchkptall();
  EXPECT_EQ(core::RestartCoordinator(mgr, nullptr)
                .restart_after(core::FailureKind::kSoft)
                .status,
            RestoreStatus::kOk);
}

}  // namespace
}  // namespace nvmcp
