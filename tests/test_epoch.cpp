// Epoch subsystem: version-ring retention/rollback (depth 1 included),
// directory attach and crash-reset (torn copies and unacknowledged
// publishes), depth changes across reopens, the refusal of images of the
// earlier metadata layout, env-knob resolution, saturation-driven GC,
// pinning, the reused-slot scrub, and bounded pending range lists.
#include <gtest/gtest.h>

#include <malloc.h>
#include <unistd.h>

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
#include "core/manager.hpp"
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

struct Stack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;

  explicit Stack(int ring_depth, std::size_t capacity = 32 * MiB,
                 const std::string& backing_file = {},
                 vmem::TrackMode mode = vmem::TrackMode::kMprotect,
                 vmem::CapacityQuota* quota = nullptr) {
    NvmConfig cfg;
    cfg.capacity = capacity;
    cfg.throttle = false;
    cfg.backing_file = backing_file;
    dev = std::make_unique<NvmDevice>(cfg);
    cont = std::make_unique<vmem::Container>(*dev);
    alloc::ChunkAllocator::Options opts;
    opts.ring_depth = ring_depth;
    opts.track_mode = mode;
    opts.quota = quota;
    alloc = std::make_unique<alloc::ChunkAllocator>(*cont, opts);
  }
};

TEST(EpochKnobs, ResolutionAndClamping) {
  // In-range configuration passes through.
  EXPECT_EQ(resolve_ring_depth(4), 4u);
  EXPECT_EQ(resolve_gc_floor(3), 3u);
  EXPECT_DOUBLE_EQ(resolve_gc_watermark(0.5), 0.5);
  // Out-of-range values clamp instead of exploding: a chunk record holds
  // kMaxRingDepth + 1 slots, and a watermark under 0.05 would reclaim on
  // every pass.
  EXPECT_EQ(resolve_ring_depth(0), 1u);
  EXPECT_EQ(resolve_ring_depth(100), kMaxRingDepth);
  EXPECT_EQ(resolve_gc_floor(100), kMaxRingDepth);
  EXPECT_DOUBLE_EQ(resolve_gc_watermark(0.0), 0.05);
  EXPECT_DOUBLE_EQ(resolve_gc_watermark(7.0), 1.0);
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
  EXPECT_EQ(s.alloc->restore_chunk(*c, 6), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 6));
  for (std::uint64_t e = 2; e <= 5; ++e) {
    EXPECT_EQ(s.alloc->restore_chunk(*c, e), RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), e));
  }
  // A reclaimed epoch is gone, detectably.
  EXPECT_EQ(s.alloc->restore_chunk(*c, 1), RestoreStatus::kNoData);
  // The record still answers for the newest version (legacy consumers).
  EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 6));
}

TEST(VersionRing, DepthOneRetainsOneOrTwoEpochsAndRestoresEach) {
  // Depth 1 is a ring with a budget of two slots: the newest epoch plus
  // the previous one, which stays addressable until the next commit
  // reuses its slot.
  Stack s(/*ring_depth=*/1);
  EXPECT_EQ(s.alloc->ring_depth(), 1u);
  alloc::Chunk* c = s.alloc->nvalloc("two", 64 * KiB, true);
  auto* ring = s.alloc->epoch_directory()->ring(c->id());
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->allocated_slots(), 0u) << "slots are taken at commit";

  fill_pattern(c->data(), c->size(), 1);
  s.alloc->checkpoint_chunk(*c, 1);
  EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({1}));
  for (std::uint64_t e = 2; e <= 5; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({e, e - 1}));
    EXPECT_EQ(ring->allocated_slots(), 2u);
    // Both retained epochs restore byte-exact: the newest as kOk, the
    // previous one as explicitly stale.
    EXPECT_EQ(s.alloc->restore_chunk(*c, e - 1),
              RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), e - 1));
    EXPECT_EQ(s.alloc->restore_chunk(*c, e), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), e));
    // The epoch before that was reused, detectably.
    if (e > 2) {
      EXPECT_EQ(s.alloc->restore_chunk(*c, e - 2),
                RestoreStatus::kNoData);
    }
  }
}

class DepthOneScrub : public ::testing::TestWithParam<vmem::TrackMode> {};

TEST_P(DepthOneScrub, RecopiesACorruptedReusedSlot) {
  // A range commit into a reused slot folds the slot's clean bytes into
  // the new checksum. At the default depth, a byte flipped in the older
  // slot, away from any write, must not survive into the next epoch: the
  // scrub verifies the reused slot and recopies the whole chunk.
  const vmem::TrackMode mode = GetParam();
  Stack s(/*ring_depth=*/1, 32 * MiB, {}, mode);
  ASSERT_NE(s.alloc->epoch_directory(), nullptr);
  // Commits epochs 1-3 of a fresh chunk, flipping a byte of the slot that
  // holds epoch 1 before epoch 3 stores `len3` bytes into the first page
  // onwards; true when epoch 3 then restores byte-exact.
  auto commit_over_a_flip = [&](const char* name, std::size_t len3) {
    alloc::Chunk* c = s.alloc->nvalloc(name, 64 * KiB, true);
    auto* p = static_cast<std::byte*>(c->data());
    // Page mode tracks the stores by fault; a notify would dirty it whole.
    auto store = [&](std::size_t off, std::size_t len, std::uint64_t seed) {
      fill_pattern(p + off, len, seed);
      if (mode == vmem::TrackMode::kWriteLog) c->log_write(off, len);
    };
    store(0, c->size(), 1);
    s.alloc->checkpoint_chunk(*c, 1);
    store(64, 64, 2);
    s.alloc->checkpoint_chunk(*c, 2);
    // Depth 1 cycles through slots 0 and 1: the other slot holds epoch 1.
    const vmem::ChunkRecord& rec = c->record();
    s.dev->data()[rec.slot_off[1 - rec.committed] + 60000] ^=
        std::byte{0x5a};
    store(0, len3, 3);
    s.alloc->checkpoint_chunk(*c, 3);
    const std::vector<std::byte> golden(p, p + c->size());
    std::memset(p, 0, c->size());
    EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
    return std::memcmp(p, golden.data(), golden.size()) == 0;
  };
  // Epochs 2 and 3 each store only into the first page, so the commit of
  // epoch 3 into the reused slot of epoch 1 is a range commit.
  EXPECT_TRUE(commit_over_a_flip("scrub", 64))
      << "the flipped byte was laundered into epoch 3";
  EXPECT_EQ(s.alloc->epoch_directory()->slot_corruptions(), 1u);
  // Stores past the coverage threshold make epoch 3 a whole copy, which
  // overwrites the flipped byte and folds no slot byte: the scrub guards
  // folds only, so it neither runs nor counts.
  EXPECT_TRUE(commit_over_a_flip("whole", 48 * KiB));
  EXPECT_EQ(s.alloc->epoch_directory()->slot_corruptions(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    RangeModes, DepthOneScrub,
    ::testing::Values(vmem::TrackMode::kWriteLog,
                      vmem::TrackMode::kMprotectPage),
    [](const ::testing::TestParamInfo<vmem::TrackMode>& info) {
      return std::string(vmem::to_string(info.param));
    });

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

TEST(EpochDirectory, DepthOneFileReopensAtDepthFourAndBack) {
  // One layout at every depth: a file written at depth 1 reopens at depth
  // 4 with both of its retained epochs, keeps committing there, and
  // reopens at depth 1 again, byte-exact each time.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_epoch_depths_" +
                         std::to_string(::getpid()) + ".nvm");
  fs::remove(path);
  {
    Stack s(1, 16 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("depths", 64 * KiB, true);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      fill_pattern(c->data(), c->size(), 100 + e);
      s.alloc->checkpoint_chunk(*c, e);
    }
  }
  {
    Stack s(4, 16 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("depths", 64 * KiB, true);
    EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 103));
    EXPECT_EQ(s.alloc->restore_chunk(*c, 2), RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 102));
    for (std::uint64_t e = 4; e <= 7; ++e) {
      fill_pattern(c->data(), c->size(), 100 + e);
      s.alloc->checkpoint_chunk(*c, e);
    }
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({7, 6, 5, 4, 3}));
  }
  {
    Stack s(1, 16 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("depths", 64 * KiB, true);
    EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 107));
    EXPECT_EQ(s.alloc->restore_chunk(*c, 6), RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 106));
    // Commits at depth 1 keep working over the slots depth 4 left, and
    // the first one frees every slot past the depth-1 budget of two.
    fill_pattern(c->data(), c->size(), 108);
    s.alloc->checkpoint_chunk(*c, 8);
    EXPECT_EQ(s.alloc->epoch_directory()->ring(c->id())->allocated_slots(),
              2u);
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({8, 7}));
    fill_pattern(c->data(), c->size(), 0);
    EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 108));
    EXPECT_EQ(s.alloc->restore_chunk(*c, 7), RestoreStatus::kOkStale);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 107));
  }
  fs::remove(path);
}

TEST(EpochDirectory, UnacknowledgedPublishIsFreedAtAttach) {
  // A crash between a slot's publish (epoch and CRC persisted) and the
  // store of the record's committed index: the record still acknowledges
  // the previous version, and attach frees the published slot, so the
  // previous epoch restores byte-exact as the newest, and the next commit
  // numbers above it.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_epoch_unacked_" +
                         std::to_string(::getpid()) + ".nvm");
  for (const int depth : {1, 4}) {
    SCOPED_TRACE("ring depth " + std::to_string(depth));
    fs::remove(path);
    std::uint64_t id = 0;
    std::uint32_t torn = kInvalidSlot;
    {
      Stack s(depth, 16 * MiB, path);
      alloc::Chunk* c = s.alloc->nvalloc("unacked", 64 * KiB, true);
      id = c->id();
      fill_pattern(c->data(), c->size(), 1);
      s.alloc->checkpoint_chunk(*c, 1);
      fill_pattern(c->data(), c->size(), 2);
      s.alloc->precopy_chunk(*c, 2);
      vmem::ChunkRecord* rec = s.cont->metadata().find(id);
      ASSERT_NE(rec, nullptr);
      for (std::uint32_t i = 0; i < kMaxRingSlots; ++i) {
        if (rec->state[i] == vmem::ChunkRecord::kSlotInProgress) torn = i;
      }
      ASSERT_NE(torn, kInvalidSlot);
      rec->checksum[torn] =
          crc64(s.dev->data() + rec->slot_off[torn], c->size());
      rec->epoch[torn] = 2;
      rec->state[torn] = vmem::ChunkRecord::kSlotPublished;
      s.cont->metadata().persist_record(*rec);
      ASSERT_NE(rec->committed, torn);
    }
    Stack s(depth, 16 * MiB, path);
    const RingSlot freed =
        s.alloc->epoch_directory()->ring(id)->snapshot_slots()[torn];
    EXPECT_EQ(freed.state, RingSlot::kFree) << "attach kept the publish";
    EXPECT_NE(freed.off, 0u) << "the freed slot keeps its region";
    alloc::Chunk* c = s.alloc->nvalloc("unacked", 64 * KiB, true);
    EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 1));
    EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({1}));
    core::CheckpointConfig cfg;
    cfg.local_policy = core::PrecopyPolicy::kNone;
    cfg.epoch_gc_background = false;
    core::CheckpointManager mgr(*s.alloc, cfg);
    fill_pattern(c->data(), c->size(), 3);
    mgr.nvchkptall();
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({2, 1}));
    fill_pattern(c->data(), c->size(), 0);
    EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 3));
  }
  fs::remove(path);
}

TEST(EpochDirectory, OldMetadataImageIsRefusedAndWritesNothing) {
  // An image whose metadata header carries the magic of the previous
  // layout, whose records had no slot lengths, is refused at every depth
  // before a byte of the device changes. Built here by stamping a
  // committed image with that magic by hand.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_epoch_oldmeta_" +
                         std::to_string(::getpid()) + ".nvm");
  fs::remove(path);
  {
    Stack s(1, 4 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("old", 64 * KiB, true);
    fill_pattern(c->data(), c->size(), 7);
    s.alloc->checkpoint_chunk(*c, 1);
    vmem::MetadataRegion& meta = s.cont->metadata();
    ASSERT_EQ(meta.header().magic, vmem::MetadataRegion::kMagic);
    meta.header().magic = 0x6e766d6d65746132ULL;  // "nvmmeta2"
    meta.persist_header();
  }
  const std::uint64_t before = file_crc(path);
  for (const int depth : {1, 4}) {
    SCOPED_TRACE("reopened at depth " + std::to_string(depth));
    EXPECT_THROW(Stack(depth, 4 * MiB, path.string()), NvmcpError);
    EXPECT_EQ(file_crc(path), before) << "a refused reopen wrote the device";
  }
  fs::remove(path);
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
  EXPECT_EQ(s.alloc->restore_chunk(*c, 7), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 7));
  EXPECT_EQ(s.alloc->restore_chunk(*c, 5), RestoreStatus::kNoData);
}

TEST(EpochGc, PinnedEpochsSurviveSaturation) {
  Stack s(/*ring_depth=*/6, 4 * MiB);
  alloc::Chunk* c = s.alloc->nvalloc("pinned", 256 * KiB, true);
  for (std::uint64_t e = 1; e <= 6; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  auto* dir = s.alloc->epoch_directory();
  // Pin epoch 2 (as an explicit-epoch restart does), then saturate hard
  // with a floor of 1: everything unpinned except the newest goes.
  s.alloc->pin_epoch(*c, 2);
  dir->gc_pass(/*watermark=*/0.01, /*floor=*/1);
  auto epochs = s.alloc->retained_epochs(*c);
  EXPECT_NE(std::find(epochs.begin(), epochs.end(), 2u), epochs.end())
      << "the GC reclaimed a pinned restore source";
  EXPECT_EQ(epochs[0], 6u);
  EXPECT_EQ(s.alloc->restore_chunk(*c, 2), RestoreStatus::kOkStale);
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
  EXPECT_EQ(s.alloc->restore_chunk(*a, 3), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(a->data(), a->size(), 13));
  EXPECT_EQ(s.alloc->restore_chunk(*b, 3), RestoreStatus::kOkStale);
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
  EXPECT_EQ(s.alloc->restore_chunk(*c, 2), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 2));
}

// Live heap bytes. A sanitizer's allocator counts them itself (its
// quarantine of freed blocks left out, which resident memory would
// include); otherwise glibc's in-use bytes, mmapped blocks included.
// GCC announces ASan and TSan with __SANITIZE_*__, clang through
// __has_feature.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NVMCP_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NVMCP_SANITIZER_HEAP 1
#endif
#endif
#ifdef NVMCP_SANITIZER_HEAP
// Declared here: GCC ships no <sanitizer/allocator_interface.h>.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
std::size_t live_heap_bytes() {
  return __sanitizer_get_current_allocated_bytes();
}
#else
std::size_t live_heap_bytes() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;
}
#endif

TEST(VersionRing, WriteLogPendingListsStayBounded) {
  // A logged range stays pending for every ring slot until copied into
  // it. Only depth + 1 slots are ever written, so only that many lists
  // may exist: a list no commit drains grows by every logged range,
  // forever.
  Stack s(/*ring_depth=*/4, 64 * MiB, {}, vmem::TrackMode::kWriteLog);
  constexpr std::size_t kChunk = 256 * KiB;
  std::vector<alloc::Chunk*> cs;
  for (int i = 0; i < 8; ++i) {
    cs.push_back(s.alloc->nvalloc("log" + std::to_string(i), kChunk, true));
  }
  auto round = [&](std::uint64_t e) {
    for (alloc::Chunk* c : cs) {
      auto* p = static_cast<std::byte*>(c->data());
      // 128 sparse 64-byte stores, 2 KiB apart: well under the coverage
      // fallback, never merged.
      for (std::size_t k = 0; k < 128; ++k) {
        const std::size_t off = k * 2 * KiB;
        std::memset(p + off, static_cast<int>(e), 64);
        c->log_write(off, 64);
      }
      s.alloc->checkpoint_chunk(*c, e);
    }
  };
  {
    // The meter must see this heap, or the bound below could never fail.
    const std::size_t before = live_heap_bytes();
    std::vector<std::byte> probe(8 * MiB, std::byte{1});
    ASSERT_GE(live_heap_bytes(), before + 8 * MiB)
        << "heap meter blind to an allocation at "
        << static_cast<const void*>(probe.data());
  }
  std::uint64_t e = 1;
  for (; e <= 20; ++e) round(e);
  const std::size_t heap0 = live_heap_bytes();
  for (; e <= 320; ++e) round(e);
  const std::size_t heap1 = live_heap_bytes();
  const std::size_t grown = heap1 - std::min(heap0, heap1);
  // Four never-drained lists would add 300 x 8 x 128 x 4 ranges of 16 B,
  // about 19 MiB.
  EXPECT_LT(grown, 4 * MiB) << "live heap grew by " << grown << " bytes";
  for (alloc::Chunk* c : cs) {
    const std::vector<std::byte> golden(
        static_cast<std::byte*>(c->data()),
        static_cast<std::byte*>(c->data()) + kChunk);
    std::memset(c->data(), 0, kChunk);
    EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
    EXPECT_EQ(std::memcmp(c->data(), golden.data(), kChunk), 0);
  }
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

TEST(VersionRing, SameEpochRecommitNeverReusesTheAcknowledgedSlot) {
  // nvchkptid, or checkpoint_chunk called directly, can commit a chunk
  // twice at one epoch. Each recommit copies into a slot other than the
  // one the record's committed index names -- a crash mid-copy would
  // otherwise tear the only acknowledged version -- and its publish frees
  // the copy it supersedes, so the epoch is retained once, across a
  // reopen too.
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_epoch_tie_" + std::to_string(::getpid()) +
                         ".nvm");
  fs::remove(path);
  auto commit = [](Stack& s, alloc::Chunk* c, std::uint64_t epoch,
                   std::uint64_t seed) {
    fill_pattern(c->data(), c->size(), seed);
    const std::uint32_t before = c->record().committed;
    s.alloc->checkpoint_chunk(*c, epoch);
    const vmem::ChunkRecord& rec = c->record();
    ASSERT_TRUE(rec.has_committed());
    EXPECT_NE(rec.committed, before)
        << "commit of seed " << seed << " copied into the acknowledged slot";
    EXPECT_EQ(rec.epoch[rec.committed], epoch);
  };
  {
    Stack s(1, 16 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("same", 32 * KiB, true);
    for (std::uint64_t k = 0; k < 4; ++k) commit(s, c, 5, 10 + k);
    EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({5}));
  }
  {
    Stack s(1, 16 * MiB, path);
    alloc::Chunk* c = s.alloc->nvalloc("same", 32 * KiB, true);
    EXPECT_EQ(c->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 13));
    EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({5}));
    commit(s, c, 6, 20);
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({6, 5}));
    fill_pattern(c->data(), c->size(), 0);
    EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(c->data(), c->size(), 20));
  }
  fs::remove(path);
}

TEST(VersionRing, GcNeverReclaimsTheAcknowledgedSlotOfAnEpochTie) {
  // A chunk committed twice at one epoch: the recommit's publish frees
  // the copy it supersedes, and the GC, down to a floor of one, reclaims
  // the older epoch but never the slot the committed index names.
  Stack s(2);
  alloc::Chunk* c = s.alloc->nvalloc("tie", 64 * KiB, true);
  const std::uint64_t epochs[] = {4, 5, 5};
  for (std::uint64_t k = 0; k < 3; ++k) {
    fill_pattern(c->data(), c->size(), 20 + k);
    s.alloc->checkpoint_chunk(*c, epochs[k]);
  }
  EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({5, 4}));
  const vmem::ChunkRecord& rec = c->record();
  const std::uint32_t acked = rec.committed;
  const GcPassStats st =
      s.alloc->epoch_directory()->gc_pass(/*watermark=*/0.0, /*floor=*/1);
  EXPECT_EQ(st.slots_reclaimed, 1u);
  EXPECT_EQ(rec.committed, acked);
  EXPECT_EQ(rec.state[acked], vmem::ChunkRecord::kSlotPublished)
      << "the GC freed the acknowledged slot";
  EXPECT_EQ(s.alloc->retained_epochs(*c), std::vector<std::uint64_t>({5}));
  fill_pattern(c->data(), c->size(), 0);
  EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 22));
}

TEST(VersionRing, DepthOneShedsASpillBackToItsBudget) {
  // With its older epoch pinned, a depth-1 commit spills into a third
  // slot. Once the pin is gone, the ring frees what it holds past its
  // budget of two (crediting the quota) instead of cycling through it.
  vmem::CapacityQuota quota;  // unlimited: meters the footprint
  Stack s(1, 32 * MiB, {}, vmem::TrackMode::kMprotect, &quota);
  constexpr std::size_t kChunk = 64 * KiB;
  alloc::Chunk* c = s.alloc->nvalloc("spill", kChunk, true);
  VersionRing* ring = s.alloc->epoch_directory()->ring(c->id());
  ASSERT_NE(ring, nullptr);
  for (std::uint64_t e = 1; e <= 2; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
  }
  s.alloc->pin_epoch(*c, 1);
  fill_pattern(c->data(), c->size(), 3);
  s.alloc->checkpoint_chunk(*c, 3);
  EXPECT_EQ(ring->allocated_slots(), 3u);
  EXPECT_EQ(quota.used(), 3 * kChunk);
  s.alloc->unpin_epoch(*c, 1);
  for (std::uint64_t e = 4; e <= 7; ++e) {
    fill_pattern(c->data(), c->size(), e);
    s.alloc->checkpoint_chunk(*c, e);
    EXPECT_EQ(ring->allocated_slots(), 2u) << "epoch " << e;
    EXPECT_EQ(quota.used(), 2 * kChunk) << "epoch " << e;
    EXPECT_EQ(s.alloc->retained_epochs(*c),
              std::vector<std::uint64_t>({e, e - 1}));
  }
  // No region is left past the budget, where a slot keeps no pending
  // range list and every commit into it would copy the whole chunk.
  const std::vector<RingSlot> slots = ring->snapshot_slots();
  for (std::size_t i = ring->slot_budget(); i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].off, 0u) << "slot " << i << " past the budget";
  }
  fill_pattern(c->data(), c->size(), 0);
  EXPECT_EQ(s.alloc->restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 7));
  EXPECT_EQ(s.alloc->restore_chunk(*c, 6), RestoreStatus::kOkStale);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 6));
}

TEST(VersionRing, FullDeviceRefusalCreditsTheQuota) {
  // A slot's quota charge is taken before its region is carved: when the
  // device has no room for the region, the commit is refused and the
  // charge undone, so the tenant is not billed for space it never got.
  vmem::CapacityQuota quota;
  Stack s(1, 4 * MiB, {}, vmem::TrackMode::kMprotect, &quota);
  alloc::Chunk* c = s.alloc->nvalloc("big", 8 * MiB, true);
  fill_pattern(c->data(), c->size(), 1);
  EXPECT_THROW(s.alloc->checkpoint_chunk(*c, 1), NvmcpError);
  EXPECT_EQ(quota.used(), 0u);
  EXPECT_TRUE(c->dirty_local()) << "a refused commit must stay dirty";
}

}  // namespace
}  // namespace nvmcp::epoch
