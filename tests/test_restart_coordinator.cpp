// RestartCoordinator: soft vs hard failure paths, lazy-local mode,
// remote fallback accounting, and behaviour without a buddy store.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"
#include "ecc/parity_group.hpp"
#include "fault/injector.hpp"

namespace nvmcp::core {
namespace {

class RestartCoordinatorTest : public ::testing::Test {
 protected:
  RestartCoordinatorTest() : link_(2.0e9, 0.1) {
    NvmConfig cfg;
    cfg.capacity = 32 * MiB;
    cfg.throttle = false;
    dev_ = std::make_unique<NvmDevice>(cfg);
    container_ = std::make_unique<vmem::Container>(*dev_);
    allocator_ = std::make_unique<alloc::ChunkAllocator>(*container_);
    CheckpointConfig ccfg;
    ccfg.rank = 2;
    mgr_ = std::make_unique<CheckpointManager>(*allocator_, ccfg);

    NvmConfig scfg;
    scfg.capacity = 32 * MiB;
    scfg.throttle = false;
    store_ = std::make_unique<net::RemoteStore>(scfg);
    remote_ = std::make_unique<net::RemoteMemory>(link_, *store_);
  }

  alloc::Chunk* checkpointed_chunk(const char* name, std::uint64_t seed,
                                   bool ship_remote) {
    alloc::Chunk* c = allocator_->nvalloc(name, 64 * KiB, true);
    fill(*c, seed);
    mgr_->nvchkptall();
    if (ship_remote) {
      std::vector<std::byte> buf(c->size());
      EXPECT_TRUE(allocator_->read_committed(*c, buf.data()));
      // Seed the buddy the way the remote helper does: one raw frame.
      compress::FrameEncoder enc;
      const auto fr = enc.encode(compress::Codec::kRaw, buf.data(),
                                 buf.size(), nullptr, 0);
      remote_->put(2, c->id(), enc.frame(), fr.frame_size,
                   compress::max_frame_size(buf.size()),
                   mgr_->committed_epoch(), /*commit=*/true);
    }
    return c;
  }

  void fill(alloc::Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    auto* p = static_cast<std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p + i, &v, 8);
    }
  }

  bool matches(const alloc::Chunk& c, std::uint64_t seed) {
    Rng rng(seed);
    const auto* p = static_cast<const std::byte*>(c.data());
    for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
      const std::uint64_t v = rng.next_u64();
      if (std::memcmp(p + i, &v, 8) != 0) return false;
    }
    return true;
  }

  void corrupt_local_slots(alloc::Chunk& c) {
    const auto& rec = c.record();
    dev_->data()[rec.slot_off[0] + 3] ^= std::byte{0xFF};
    dev_->data()[rec.slot_off[1] + 3] ^= std::byte{0xFF};
  }

  net::Interconnect link_;
  std::unique_ptr<NvmDevice> dev_;
  std::unique_ptr<vmem::Container> container_;
  std::unique_ptr<alloc::ChunkAllocator> allocator_;
  std::unique_ptr<CheckpointManager> mgr_;
  std::unique_ptr<net::RemoteStore> store_;
  std::unique_ptr<net::RemoteMemory> remote_;
};

TEST_F(RestartCoordinatorTest, SoftRestartUsesLocalNvm) {
  alloc::Chunk* c = checkpointed_chunk("soft", 1, /*ship_remote=*/false);
  fill(*c, 99);
  RestartCoordinator rc(*mgr_, remote_.get());
  const RestartReport rep = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(rep.status, RestoreStatus::kOk);
  EXPECT_EQ(rep.chunks_local, 1);
  EXPECT_EQ(rep.chunks_remote, 0);
  EXPECT_EQ(rep.bytes_local, 64 * KiB);
  EXPECT_TRUE(matches(*c, 1));
  EXPECT_GT(rep.seconds, 0.0);
}

TEST_F(RestartCoordinatorTest, SoftRestartFallsBackPerChunk) {
  alloc::Chunk* good = checkpointed_chunk("good", 1, true);
  alloc::Chunk* bad = checkpointed_chunk("bad", 2, true);
  corrupt_local_slots(*bad);
  fill(*good, 90);
  fill(*bad, 91);
  RestartCoordinator rc(*mgr_, remote_.get());
  const RestartReport rep = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_local, 1);
  EXPECT_EQ(rep.chunks_remote, 1);
  EXPECT_TRUE(matches(*good, 1));
  EXPECT_TRUE(matches(*bad, 2));
}

TEST_F(RestartCoordinatorTest, HardRestartIgnoresLocalData) {
  alloc::Chunk* c = checkpointed_chunk("hard", 5, true);
  fill(*c, 50);
  RestartCoordinator rc(*mgr_, remote_.get());
  const RestartReport rep = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_local, 0);
  EXPECT_EQ(rep.chunks_remote, 1);
  EXPECT_EQ(rep.bytes_remote, 64 * KiB);
  EXPECT_TRUE(matches(*c, 5));
}

TEST_F(RestartCoordinatorTest, HardRestartWithoutRemoteFails) {
  checkpointed_chunk("stranded", 7, /*ship_remote=*/false);
  RestartCoordinator rc(*mgr_, /*remote=*/nullptr);
  const RestartReport rep = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kNoData);
  EXPECT_EQ(rep.chunks_failed, 1);
}

TEST_F(RestartCoordinatorTest, LazySoftRestartArmsInsteadOfCopying) {
  alloc::Chunk* c = checkpointed_chunk("lazy", 9, false);
  fill(*c, 90);
  RestartCoordinator::Options opts;
  opts.lazy_local = true;
  RestartCoordinator rc(*mgr_, remote_.get(), opts);
  const auto reads_before = dev_->stats().bytes_read;
  const RestartReport rep = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(rep.chunks_lazy_armed, 1);
  EXPECT_EQ(rep.bytes_local, 0u);
  EXPECT_EQ(dev_->stats().bytes_read, reads_before);  // nothing copied yet
  // First touch materializes the checkpoint.
  EXPECT_TRUE(matches(*c, 9));
  EXPECT_EQ(allocator_->lazy_state(*c),
            vmem::ProtectionManager::LazyState::kDone);
}

TEST_F(RestartCoordinatorTest, HardRestartFallsBackToParityRebuild) {
  // Two-rank SPMD group: the fixture is rank 0, a second stack plays the
  // surviving rank 1. Both register the same chunk id, as the workload
  // driver does.
  alloc::Chunk* c = checkpointed_chunk("spmd", 11, /*ship_remote=*/true);

  NvmConfig cfg2;
  cfg2.capacity = 32 * MiB;
  cfg2.throttle = false;
  NvmDevice dev2(cfg2);
  vmem::Container cont2(dev2);
  alloc::ChunkAllocator alloc2(cont2);
  CheckpointConfig ccfg2;
  ccfg2.rank = 3;
  CheckpointManager mgr2(alloc2, ccfg2);
  alloc::Chunk* c2 = alloc2.nvalloc("spmd", 64 * KiB, true);
  fill(*c2, 12);
  mgr2.nvchkptall();

  // Protect one epoch with a single parity shard in its own store.
  NvmConfig pcfg;
  pcfg.capacity = 32 * MiB;
  pcfg.throttle = false;
  net::RemoteStore parity_store(pcfg);
  ecc::ParityCheckpointGroup group({mgr_.get(), &mgr2},
                                   net::RemoteMemory(link_, parity_store),
                                   /*parity_shards=*/1);
  ASSERT_GT(group.protect_epoch(), 0u);

  // The buddy store holds the data but an injected outage makes every
  // fetch fail in transit -- a hard crash while the interconnect to the
  // buddy is down. Only the parity path can bring rank 0 back.
  fault::FaultInjector inj;
  inj.arm(123);
  inj.set_outage(true);
  store_->set_fault_injector(&inj);
  fill(*c, 99);  // live DRAM state dies with the node

  RestartCoordinator::Options opts;
  opts.parity_rebuild = [&] { return group.recover_ranks({0}); };
  RestartCoordinator rc(*mgr_, remote_.get(), opts);
  const RestartReport rep = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_parity, 1);
  EXPECT_EQ(rep.chunks_remote, 0);
  EXPECT_EQ(rep.chunks_failed, 0);
  EXPECT_EQ(rep.bytes_parity, 64 * KiB);
  EXPECT_TRUE(matches(*c, 11));  // byte-correct, from survivors + parity
  EXPECT_EQ(group.stats().chunks_recovered, 1u);
}

TEST_F(RestartCoordinatorTest, NonPersistentChunksAreIgnored) {
  allocator_->nvalloc("scratch", 16 * KiB, false);
  RestartCoordinator rc(*mgr_, remote_.get());
  const RestartReport rep = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(rep.chunks_local + rep.chunks_remote + rep.chunks_failed, 0);
}

// Regression: a rank with zero persistent chunks used to hard-restart as
// kNoData ("nothing came from remote or parity"); nothing to restore and
// nothing failed is kOk, for both failure kinds.
TEST_F(RestartCoordinatorTest, EmptyRankRestartsAsOk) {
  allocator_->nvalloc("scratch", 16 * KiB, false);  // non-persistent only
  RestartCoordinator rc(*mgr_, remote_.get());
  const RestartReport hard = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(hard.status, RestoreStatus::kOk);
  EXPECT_EQ(hard.chunks_failed, 0);
  const RestartReport soft = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(soft.status, RestoreStatus::kOk);
}

// The folded status handling: a chunk that fails local, remote and parity
// alike settles the report at kNoData with the failure counted, on the
// soft path exactly as on the hard one.
TEST_F(RestartCoordinatorTest, SoftRestartUnrecoverableChunkIsNoData) {
  alloc::Chunk* bad = checkpointed_chunk("doomed", 31, /*ship_remote=*/false);
  corrupt_local_slots(*bad);
  fill(*bad, 99);
  RestartCoordinator rc(*mgr_, remote_.get());  // buddy never got the data
  const RestartReport rep = rc.restart_after(FailureKind::kSoft);
  EXPECT_EQ(rep.status, RestoreStatus::kNoData);
  EXPECT_EQ(rep.chunks_failed, 1);
}

TEST_F(RestartCoordinatorTest, IsolatedBuddyPrefersParityRebuild) {
  // The buddy received epoch 1, then this rank's replication path was
  // isolated: epoch 2 is protected only by the parity group. A hard
  // restart told about the isolation must not trust the (stale) buddy
  // copy -- parity goes first and brings back the latest epoch.
  alloc::Chunk* c = checkpointed_chunk("spmd", 21, /*ship_remote=*/true);

  NvmConfig cfg2;
  cfg2.capacity = 32 * MiB;
  cfg2.throttle = false;
  NvmDevice dev2(cfg2);
  vmem::Container cont2(dev2);
  alloc::ChunkAllocator alloc2(cont2);
  CheckpointConfig ccfg2;
  ccfg2.rank = 3;
  CheckpointManager mgr2(alloc2, ccfg2);
  alloc::Chunk* c2 = alloc2.nvalloc("spmd", 64 * KiB, true);
  fill(*c2, 12);
  mgr2.nvchkptall();

  fill(*c, 22);
  mgr_->nvchkptall();  // epoch 2 commits locally; the buddy never sees it

  NvmConfig pcfg;
  pcfg.capacity = 32 * MiB;
  pcfg.throttle = false;
  net::RemoteStore parity_store(pcfg);
  ecc::ParityCheckpointGroup group({mgr_.get(), &mgr2},
                                   net::RemoteMemory(link_, parity_store),
                                   /*parity_shards=*/1);
  ASSERT_GT(group.protect_epoch(), 0u);  // protects epoch 2

  fill(*c, 99);  // live DRAM state dies with the node

  RestartCoordinator::Options opts;
  opts.parity_rebuild = [&] { return group.recover_ranks({0}); };
  opts.buddy_health = RemoteHealth::kIsolated;
  RestartCoordinator rc(*mgr_, remote_.get(), opts);
  const RestartReport rep = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_parity, 1);
  EXPECT_EQ(rep.chunks_remote, 0);
  EXPECT_EQ(rep.chunks_failed, 0);
  EXPECT_TRUE(matches(*c, 22));  // the latest epoch, not the buddy's 21
}

TEST_F(RestartCoordinatorTest, IsolatedBuddyWithoutParityStillFetches) {
  // Isolation without a registered parity group: the suspect buddy is
  // still the only source, so the hard restart falls back to it.
  alloc::Chunk* c = checkpointed_chunk("lone", 33, /*ship_remote=*/true);
  fill(*c, 99);
  RestartCoordinator::Options opts;
  opts.buddy_health = RemoteHealth::kIsolated;
  RestartCoordinator rc(*mgr_, remote_.get(), opts);
  const RestartReport rep = rc.restart_after(FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_remote, 1);
  EXPECT_TRUE(matches(*c, 33));
}

// Regression: restore_with_remote used to reimplement the soft path by
// hand, with no parity fallback. As a RestartCoordinator wrapper it now
// recovers even when both the local slots and the buddy fail.
TEST_F(RestartCoordinatorTest, RestoreWithRemoteUsesParityFallback) {
  alloc::Chunk* c = checkpointed_chunk("spmd", 41, /*ship_remote=*/false);

  NvmConfig cfg2;
  cfg2.capacity = 32 * MiB;
  cfg2.throttle = false;
  NvmDevice dev2(cfg2);
  vmem::Container cont2(dev2);
  alloc::ChunkAllocator alloc2(cont2);
  CheckpointConfig ccfg2;
  ccfg2.rank = 3;
  CheckpointManager mgr2(alloc2, ccfg2);
  alloc::Chunk* c2 = alloc2.nvalloc("spmd", 64 * KiB, true);
  fill(*c2, 42);
  mgr2.nvchkptall();

  NvmConfig pcfg;
  pcfg.capacity = 32 * MiB;
  pcfg.throttle = false;
  net::RemoteStore parity_store(pcfg);
  ecc::ParityCheckpointGroup group({mgr_.get(), &mgr2},
                                   net::RemoteMemory(link_, parity_store),
                                   /*parity_shards=*/1);
  ASSERT_GT(group.protect_epoch(), 0u);

  corrupt_local_slots(*c);  // local gone; buddy never had it
  fill(*c, 99);

  RestartCoordinator::Options opts;
  opts.parity_rebuild = [&] { return group.recover_ranks({0}); };
  EXPECT_EQ(restore_with_remote(*mgr_, *remote_, opts),
            RestoreStatus::kOkFromRemote);
  EXPECT_TRUE(matches(*c, 41));
}

}  // namespace
}  // namespace nvmcp::core
