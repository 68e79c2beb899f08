// Tests for the nvmalloc chunk allocator (Table III API): allocation,
// version slots, checkpoint/commit/restore primitives, versioning,
// nvattach/nvrealloc/nvdelete, and restart restore.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"

namespace nvmcp::alloc {
namespace {

class NvmallocTest : public ::testing::Test {
 protected:
  NvmallocTest() {
    NvmConfig cfg;
    cfg.capacity = 32 * MiB;
    cfg.throttle = false;
    dev_ = std::make_unique<NvmDevice>(cfg);
    container_ = std::make_unique<vmem::Container>(*dev_);
    allocator_ = std::make_unique<ChunkAllocator>(*container_);
  }

  void fill(Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    auto* p = static_cast<std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p + i, &v, 8);
    }
  }

  bool matches(const Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    const auto* p = static_cast<const std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      if (std::memcmp(p + i, &v, 8) != 0) return false;
    }
    return true;
  }

  std::unique_ptr<NvmDevice> dev_;
  std::unique_ptr<vmem::Container> container_;
  std::unique_ptr<ChunkAllocator> allocator_;
};

TEST(GenId, StableAndNonZero) {
  EXPECT_EQ(genid("zion"), genid("zion"));
  EXPECT_NE(genid("zion"), genid("zion0"));
  EXPECT_NE(genid(""), 0u);
}

TEST_F(NvmallocTest, AllocReturnsWritableDram) {
  Chunk* c = allocator_->nvalloc("var_a", 100 * KiB, true);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->size(), 100 * KiB);
  EXPECT_TRUE(c->dirty_local());  // fresh chunks are dirty by definition
  fill(*c, 1);
  EXPECT_TRUE(matches(*c, 1));
}

TEST_F(NvmallocTest, DuplicateIdThrows) {
  allocator_->nvalloc("dup", 4 * KiB, true);
  EXPECT_THROW(allocator_->nvalloc("dup", 4 * KiB, true), NvmcpError);
}

TEST_F(NvmallocTest, ZeroSizeOrIdThrows) {
  EXPECT_THROW(allocator_->nvalloc(std::uint64_t{0}, 4 * KiB, true),
               NvmcpError);
  EXPECT_THROW(allocator_->nvalloc("empty", 0, true), NvmcpError);
}

TEST_F(NvmallocTest, Nv2dAllocSizesCorrectly) {
  Chunk* c = allocator_->nv2dalloc("matrix", 100, 50, 8, true);
  EXPECT_EQ(c->size(), 100u * 50u * 8u);
}

TEST_F(NvmallocTest, CheckpointAndRestoreRoundTrip) {
  Chunk* c = allocator_->nvalloc("state", 64 * KiB, true);
  fill(*c, 42);
  allocator_->checkpoint_chunk(*c, 1);
  EXPECT_FALSE(c->dirty_local());

  fill(*c, 99);  // diverge the working copy
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(matches(*c, 42));
}

TEST_F(NvmallocTest, TwoVersionsAlternateSlots) {
  Chunk* c = allocator_->nvalloc("versioned", 16 * KiB, true);
  fill(*c, 1);
  allocator_->checkpoint_chunk(*c, 1);
  const std::uint32_t slot1 = c->record().committed;
  fill(*c, 2);
  allocator_->checkpoint_chunk(*c, 2);
  const std::uint32_t slot2 = c->record().committed;
  EXPECT_NE(slot1, slot2);
  EXPECT_EQ(c->record().epoch[slot2], 2u);
  EXPECT_EQ(c->record().epoch[slot1], 1u);
}

TEST_F(NvmallocTest, PrecopyThenCommitSkipsSecondCopy) {
  Chunk* c = allocator_->nvalloc("pc", 32 * KiB, true);
  fill(*c, 5);
  allocator_->precopy_chunk(*c, 1);
  EXPECT_FALSE(c->dirty_local());
  EXPECT_EQ(c->precopied_epoch(), 1u);
  const auto written_before = dev_->stats().bytes_written;
  allocator_->commit_chunk(*c, 1);
  // Commit is metadata-only: no payload rewrite.
  EXPECT_LT(dev_->stats().bytes_written - written_before, 4 * KiB);
  fill(*c, 6);
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(matches(*c, 5));
}

TEST_F(NvmallocTest, CommitWrongEpochThrows) {
  Chunk* c = allocator_->nvalloc("wrong", 8 * KiB, true);
  fill(*c, 1);
  allocator_->precopy_chunk(*c, 3);
  EXPECT_THROW(allocator_->commit_chunk(*c, 4), NvmcpError);
}

TEST_F(NvmallocTest, WriteAfterPrecopyRedirties) {
  Chunk* c = allocator_->nvalloc("redirty", 16 * KiB, true);
  fill(*c, 1);
  allocator_->precopy_chunk(*c, 1);
  EXPECT_FALSE(c->dirty_local());
  fill(*c, 2);  // faults and re-marks dirty (mprotect tracking)
  EXPECT_TRUE(c->dirty_local());
}

TEST_F(NvmallocTest, RestoreWithoutCommitReportsNoData) {
  Chunk* c = allocator_->nvalloc("never", 8 * KiB, true);
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kNoData);
}

TEST_F(NvmallocTest, ChecksumMismatchDetected) {
  Chunk* c = allocator_->nvalloc("sum", 8 * KiB, true);
  fill(*c, 1);
  allocator_->checkpoint_chunk(*c, 1);
  // Corrupt the committed slot directly (bit rot).
  const auto& rec = c->record();
  dev_->data()[rec.slot_off[rec.committed] + 100] ^= std::byte{0xFF};
  EXPECT_EQ(allocator_->restore_chunk(*c),
            RestoreStatus::kChecksumMismatch);
}

TEST_F(NvmallocTest, ReadCommittedCopiesPayload) {
  Chunk* c = allocator_->nvalloc("rc", 8 * KiB, true);
  fill(*c, 11);
  allocator_->checkpoint_chunk(*c, 1);
  std::vector<std::byte> out(c->size());
  EXPECT_TRUE(allocator_->read_committed(*c, out.data()));
  EXPECT_EQ(0, std::memcmp(out.data(), c->data(), c->size()));
}

TEST_F(NvmallocTest, NvattachUsesSoftwareTracking) {
  std::vector<std::byte> app_buf(10000, std::byte{1});
  Chunk* c = allocator_->nvattach(genid("attached"), app_buf.data(),
                                  app_buf.size(), "attached");
  EXPECT_EQ(c->data(), app_buf.data());
  allocator_->checkpoint_chunk(*c, 1);
  EXPECT_FALSE(c->dirty_local());
  app_buf[5] = std::byte{2};
  c->notify_write();
  EXPECT_TRUE(c->dirty_local());
}

TEST_F(NvmallocTest, NvreallocGrowsPreservingData) {
  Chunk* c = allocator_->nvalloc("grow", 16 * KiB, true);
  fill(*c, 21);
  allocator_->checkpoint_chunk(*c, 1);
  std::vector<std::byte> prefix(16 * KiB);
  std::memcpy(prefix.data(), c->data(), prefix.size());

  Chunk* g = allocator_->nvrealloc(genid("grow"), 64 * KiB);
  EXPECT_EQ(g->size(), 64 * KiB);
  EXPECT_EQ(0, std::memcmp(g->data(), prefix.data(), prefix.size()));
  EXPECT_TRUE(g->dirty_local());

  // Committed payload was carried across: restore gets the old prefix.
  fill(*g, 77);
  EXPECT_EQ(allocator_->restore_chunk(*g), RestoreStatus::kOk);
  EXPECT_EQ(0, std::memcmp(g->data(), prefix.data(), prefix.size()));
}

TEST_F(NvmallocTest, NvdeleteFreesAndForgets) {
  allocator_->nvalloc("gone", 8 * KiB, true);
  allocator_->nvdelete(genid("gone"));
  EXPECT_EQ(allocator_->find(genid("gone")), nullptr);
  EXPECT_THROW(allocator_->nvdelete(genid("gone")), NvmcpError);
  // Id can be reused after deletion.
  Chunk* again = allocator_->nvalloc("gone", 8 * KiB, true);
  EXPECT_NE(again, nullptr);
}

TEST_F(NvmallocTest, PerStreamLimiterThrottlesCheckpoint) {
  Chunk* c = allocator_->nvalloc("slow", 1 * MiB, true);
  fill(*c, 1);
  BandwidthLimiter stream(32.0 * MiB);
  const double secs = allocator_->checkpoint_chunk(*c, 1, &stream).seconds;
  const double expected = static_cast<double>(c->size()) / (32.0 * MiB);
  EXPECT_GT(secs, 0.6 * expected);
}

// Property-style sweep: round trip across many sizes including page
// boundaries.
class NvmallocSizeSweep : public NvmallocTest,
                          public ::testing::WithParamInterface<std::size_t> {
};

TEST_P(NvmallocSizeSweep, RoundTripAnySize) {
  const std::size_t size = GetParam();
  Chunk* c = allocator_->nvalloc("sweep", size, true);
  fill(*c, size);
  allocator_->checkpoint_chunk(*c, 1);
  fill(*c, size + 1);
  EXPECT_EQ(allocator_->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(matches(*c, size));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NvmallocSizeSweep,
    ::testing::Values(64, 100, 4096, 4097, 8191, 65536, 100000,
                      1048576, 1048577));

}  // namespace
}  // namespace nvmcp::alloc
