// RemoteStore / RemoteMemory: ARMCI-style put/get, two-version remote
// commits, stale-epoch protection, checksum-verified fetches, and
// variable-length puts into fixed-capacity slots.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
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
  rm_->put(0, 5, small.data(), small.size(), small.size(), 1, true);
  rm_->put(0, 5, big.data(), big.size(), big.size(), 2, true);
  std::vector<std::byte> out(big.size());
  EXPECT_EQ(rm_->get(0, 5, out.data(), out.size()), out.size());
  EXPECT_EQ(out, big);
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

}  // namespace
}  // namespace nvmcp::net
