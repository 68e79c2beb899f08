// RemoteStore / RemoteMemory: ARMCI-style put/get, two-version remote
// commits, stale-epoch protection, checksum-verified fetches,
// variable-length puts into fixed-capacity slots, a buddy that reopens
// from its device file, commits racing puts, and link degradation of
// puts and gets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/restart.hpp"
#include "fault/injector.hpp"
#include "net/remote_memory.hpp"

namespace nvmcp::net {
namespace {

class RemoteMemoryTest : public ::testing::Test {
 protected:
  RemoteMemoryTest() : link_(1.0e9, 0.05) {
    NvmConfig cfg;
    cfg.capacity = 32 * MiB;
    cfg.throttle = false;
    store_ = std::make_unique<RemoteStore>(cfg);
    rm_ = std::make_unique<RemoteMemory>(link_, *store_);
  }

  std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    Rng rng(seed);
    for (auto& b : v) b = static_cast<std::byte>(rng.next_u64());
    return v;
  }

  Interconnect link_;
  std::unique_ptr<RemoteStore> store_;
  std::unique_ptr<RemoteMemory> rm_;
};

TEST_F(RemoteMemoryTest, PutCommitGetRoundTrip) {
  const auto data = pattern(200 * KiB, 1);
  rm_->put(/*rank=*/0, /*chunk=*/77, data.data(), data.size(), data.size(),
           /*epoch=*/5, /*commit=*/true);
  EXPECT_EQ(store_->committed_epoch(0, 77), 5u);
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(rm_->get(0, 77, out.data(), out.size()), out.size());
  EXPECT_EQ(out, data);
}

TEST_F(RemoteMemoryTest, UncommittedPutNotVisibleToGet) {
  const auto data = pattern(64 * KiB, 2);
  rm_->put(0, 1, data.data(), data.size(), data.size(), 1, /*commit=*/false);
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(rm_->get(0, 1, out.data(), out.size()), 0u);
  rm_->commit(0, 1, 1);
  EXPECT_EQ(rm_->get(0, 1, out.data(), out.size()), out.size());
}

TEST_F(RemoteMemoryTest, CommitWrongEpochIsIgnored) {
  const auto data = pattern(16 * KiB, 3);
  rm_->put(0, 2, data.data(), data.size(), data.size(), 4, false);
  rm_->commit(0, 2, 9);  // stale/wrong epoch
  EXPECT_EQ(store_->committed_epoch(0, 2), 0u);
}

TEST_F(RemoteMemoryTest, TwoVersionsProtectPreviousCommit) {
  const auto v1 = pattern(64 * KiB, 10);
  const auto v2 = pattern(64 * KiB, 20);
  rm_->put(0, 3, v1.data(), v1.size(), v1.size(), 1, true);
  // A second put lands in the other slot; until committed, v1 survives.
  rm_->put(0, 3, v2.data(), v2.size(), v2.size(), 2, false);
  std::vector<std::byte> out(v1.size());
  EXPECT_EQ(rm_->get(0, 3, out.data(), out.size()), out.size());
  EXPECT_EQ(out, v1);
  rm_->commit(0, 3, 2);
  EXPECT_EQ(rm_->get(0, 3, out.data(), out.size()), out.size());
  EXPECT_EQ(out, v2);
}

TEST_F(RemoteMemoryTest, RanksAreIsolated) {
  const auto a = pattern(32 * KiB, 30);
  const auto b = pattern(32 * KiB, 40);
  rm_->put(0, 9, a.data(), a.size(), a.size(), 1, true);
  rm_->put(1, 9, b.data(), b.size(), b.size(), 1, true);
  std::vector<std::byte> out(a.size());
  EXPECT_EQ(rm_->get(0, 9, out.data(), out.size()), out.size());
  EXPECT_EQ(out, a);
  EXPECT_EQ(rm_->get(1, 9, out.data(), out.size()), out.size());
  EXPECT_EQ(out, b);
  EXPECT_EQ(store_->stored_chunks(), 2u);
}

TEST_F(RemoteMemoryTest, GetUnknownPairFails) {
  std::vector<std::byte> out(1024);
  EXPECT_EQ(rm_->get(5, 555, out.data(), out.size()), 0u);
}

TEST_F(RemoteMemoryTest, SizeMismatchFails) {
  const auto data = pattern(32 * KiB, 50);
  rm_->put(0, 4, data.data(), data.size(), data.size(), 1, true);
  std::vector<std::byte> out(16 * KiB);
  EXPECT_EQ(rm_->get(0, 4, out.data(), out.size()), 0u);
}

TEST_F(RemoteMemoryTest, SizeChangeReplacesSlots) {
  const auto small = pattern(16 * KiB, 60);
  const auto big = pattern(64 * KiB, 70);
  const std::uint64_t empty = store_->device().reserved_bytes();
  rm_->put(0, 5, small.data(), small.size(), small.size(), 1, true);
  rm_->put(0, 5, big.data(), big.size(), big.size(), 2, true);
  std::vector<std::byte> out(big.size());
  EXPECT_EQ(rm_->get(0, 5, out.data(), out.size()), out.size());
  EXPECT_EQ(out, big);
  // The old pair's region is freed: the device holds one 64 KiB slot, the
  // footprint of a pair committed once at the new size.
  EXPECT_EQ(store_->device().reserved_bytes(), empty + big.size());
}

TEST_F(RemoteMemoryTest, CorruptRemoteDetectedByChecksum) {
  const auto data = pattern(32 * KiB, 80);
  rm_->put(0, 6, data.data(), data.size(), data.size(), 1, true);
  // Flip a byte inside the remote committed slot.
  auto& dev = store_->device();
  bool flipped = false;
  for (std::size_t p = 0; p < dev.capacity() && !flipped; p += 64) {
    if (std::memcmp(dev.data() + p, data.data(), 64) == 0) {
      dev.data()[p] ^= std::byte{0xFF};
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  std::vector<std::byte> out(data.size());
  EXPECT_EQ(rm_->get(0, 6, out.data(), out.size()), 0u);
}

TEST_F(RemoteMemoryTest, ShortPutsShareAFixedCapacitySlot) {
  // Frames vary in size per epoch, the slot capacity does not: get returns
  // each commit's own length, and only the put bytes cross the link.
  const auto v1 = pattern(48 * KiB, 11);
  const auto v2 = pattern(20 * KiB, 12);
  std::vector<std::byte> out(64 * KiB);
  ASSERT_TRUE(rm_->put(0, 8, v1.data(), v1.size(), out.size(), 1, true));
  ASSERT_TRUE(rm_->put(0, 8, v2.data(), v2.size(), out.size(), 2, true));
  ASSERT_EQ(rm_->get(0, 8, out.data(), out.size()), v2.size());
  EXPECT_EQ(std::memcmp(out.data(), v2.data(), v2.size()), 0);
  EXPECT_EQ(link_.stats().checkpoint_bytes, v1.size() + 2 * v2.size());
  // More bytes than the capacity are refused outright.
  EXPECT_FALSE(rm_->put(0, 9, v1.data(), v1.size(), v1.size() - 1, 1, true));
}

TEST_F(RemoteMemoryTest, TransfersAccountedAsCheckpointTraffic) {
  const auto data = pattern(128 * KiB, 90);
  rm_->put(0, 7, data.data(), data.size(), data.size(), 1, true);
  EXPECT_GE(link_.stats().checkpoint_bytes, data.size());
  EXPECT_EQ(link_.stats().app_bytes, 0u);
}

TEST_F(RemoteMemoryTest, AppCommunicateUsesAppClass) {
  rm_->app_communicate(64 * KiB);
  EXPECT_EQ(link_.stats().app_bytes, 64 * KiB);
}

// The buddy's records are the one description of its frames: a store
// reopened from its device file serves every committed frame, drops the
// frame that was only staged, and a fresh local stack hard-restarts from
// it byte-exact.
TEST_F(RemoteMemoryTest, ReopenedStoreServesCommittedFrames) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_buddy_reopen_" + std::to_string(::getpid()) +
                         ".nvm");
  fs::remove(path);
  struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() { fs::remove(path); }
  } remove_on_exit{path};
  NvmConfig scfg;
  scfg.capacity = 16 * MiB;
  scfg.throttle = false;
  scfg.backing_file = path.string();
  constexpr std::uint32_t kRank = 3;
  const std::size_t sizes[] = {64 * KiB, 200 * KiB, 8 * KiB};
  const compress::Codec codecs[] = {compress::Codec::kRaw,
                                    compress::Codec::kLz,
                                    compress::Codec::kRaw};
  std::vector<std::vector<std::byte>> payload, frames;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "reopen_" + std::to_string(i);
    ids.push_back(alloc::genid(name));
    payload.push_back(pattern(sizes[i], 100 + static_cast<std::uint64_t>(i)));
    if (i == 1) {  // compressible, so its LZ frame is shorter than the slot
      for (std::size_t b = 0; b < sizes[i]; b += 2) payload[i][b] = {};
    }
    compress::FrameEncoder enc;
    const auto fr = enc.encode(codecs[i], payload[i].data(), sizes[i],
                               nullptr, 0);
    frames.emplace_back(enc.frame(), enc.frame() + fr.frame_size);
  }
  {
    RemoteStore store(scfg);
    RemoteMemory rm(link_, store);
    for (int i = 0; i < 3; ++i) {
      const std::size_t cap = compress::max_frame_size(sizes[i]);
      const auto old = pattern(frames[i].size(), 7);  // epoch 2, superseded
      ASSERT_TRUE(rm.put(kRank, ids[i], old.data(), old.size(), cap, 2,
                         /*commit=*/true));
      ASSERT_TRUE(rm.put(kRank, ids[i], frames[i].data(), frames[i].size(),
                         cap, 3, /*commit=*/true));
    }
    // Staged, never committed: gone after the reopen.
    const auto staged = pattern(frames[0].size(), 8);
    ASSERT_TRUE(rm.put(kRank, ids[0], staged.data(), staged.size(),
                       compress::max_frame_size(sizes[0]), 4, false));
    EXPECT_EQ(store.held_epoch(kRank, ids[0]), 4u);
  }

  RemoteStore store(scfg);
  ASSERT_TRUE(store.device().reopened());
  RemoteMemory rm(link_, store);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    EXPECT_EQ(store.committed_epoch(kRank, ids[i]), 3u);
    EXPECT_EQ(store.held_epoch(kRank, ids[i]), 3u);
    std::vector<std::byte> out(compress::max_frame_size(sizes[i]));
    ASSERT_EQ(rm.get(kRank, ids[i], out.data(), out.size()),
              frames[i].size());
    EXPECT_EQ(std::memcmp(out.data(), frames[i].data(), frames[i].size()),
              0);
  }
  EXPECT_EQ(store.held_epoch(kRank, ids[0]), 3u);

  NvmConfig cfg;
  cfg.capacity = 8 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.rank = kRank;
  core::CheckpointManager mgr(allocator, ccfg);
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < 3; ++i) {
    chunks.push_back(
        allocator.nvalloc("reopen_" + std::to_string(i), sizes[i], true));
  }
  const core::RestartReport rep =
      core::RestartCoordinator(mgr, &rm).restart_after(
          core::FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_remote, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(chunks[i]->data(), payload[i].data(), sizes[i]), 0)
        << "chunk " << i;
  }
  EXPECT_EQ(mgr.next_epoch(), 4u);  // past the buddy's epoch 3
}

// A commit never publishes a slot a put is still writing: the second put
// of epoch e clears the staged frame before its first byte moves, so a
// commit of e racing it publishes nothing and the e-1 frame stays
// served; once the put lands, the commit publishes its bytes.
TEST_F(RemoteMemoryTest, CommitRacingAPutPublishesNothingTorn) {
  constexpr std::size_t kFrame = 8 * MiB;  // 0.8 s through a 10 MiB/s link
  Interconnect slow(10.0 * MiB, 0.05);
  RemoteMemory slow_rm(slow, *store_);
  const auto prev = pattern(kFrame, 1);
  const auto first = pattern(kFrame, 2);
  const auto second = pattern(kFrame, 3);
  ASSERT_TRUE(rm_->put(0, 11, prev.data(), kFrame, kFrame, 4, true));
  ASSERT_TRUE(rm_->put(0, 11, first.data(), kFrame, kFrame, 5, false));
  ASSERT_EQ(store_->held_epoch(0, 11), 5u);

  std::atomic<bool> landed{false};
  std::thread putter([&] {
    EXPECT_TRUE(slow_rm.put(0, 11, second.data(), kFrame, kFrame, 5, false));
    landed.store(true);
  });
  // Wait until the second put has moved a block, polling the link's byte
  // count rather than sleeping.
  while (slow.stats().checkpoint_bytes == 0) precise_sleep(1e-4);
  const bool racing_commit = rm_->commit(0, 11, 5);
  const bool still_writing = !landed.load();
  std::vector<std::byte> out(kFrame);
  const std::size_t during = rm_->get(0, 11, out.data(), out.size());
  putter.join();
  ASSERT_TRUE(still_writing) << "the put landed before the racing commit";
  EXPECT_FALSE(racing_commit);
  EXPECT_EQ(store_->committed_epoch(0, 11), 4u);
  ASSERT_EQ(during, kFrame);
  EXPECT_EQ(out, prev);
  ASSERT_EQ(rm_->get(0, 11, out.data(), out.size()), kFrame);
  EXPECT_EQ(out, prev);

  EXPECT_TRUE(rm_->commit(0, 11, 5));
  EXPECT_TRUE(rm_->commit(0, 11, 5));  // already committed: still true
  ASSERT_EQ(rm_->get(0, 11, out.data(), out.size()), kFrame);
  EXPECT_EQ(out, second);
}

// Puts and gets run the link's block loop, so a degraded link delays
// every block they move, as it does application transfers.
TEST_F(RemoteMemoryTest, LinkDegradeDelaysPutsAndGets) {
  fault::FaultInjector inj;
  inj.arm(0xde9);
  inj.set_link_degrade_factor(4.0);
  link_.set_fault_injector(&inj);
  const std::size_t n = 4 * ThrottledCopier::kBlockSize;
  const auto data = pattern(n, 5);
  ASSERT_TRUE(rm_->put(0, 12, data.data(), n, n, 1, true));
  EXPECT_EQ(inj.stats().transfers_delayed, 4u);
  std::vector<std::byte> out(n);
  ASSERT_EQ(rm_->get(0, 12, out.data(), n), n);
  EXPECT_EQ(out, data);
  EXPECT_EQ(inj.stats().transfers_delayed, 8u);
  link_.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace nvmcp::net
