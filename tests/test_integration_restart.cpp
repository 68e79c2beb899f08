// Integration tests across the full stack: checkpoint -> crash -> restart,
// including crash-during-checkpoint torn-write recovery (two-version
// protection), file-backed persistence across device sessions, and
// restore-from-remote fallback.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/manager.hpp"
#include "core/restart.hpp"

namespace nvmcp {
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

TEST(IntegrationRestart, CrashDuringCheckpointKeepsPreviousVersion) {
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);

  alloc::Chunk* c = allocator.nvalloc("state", 256 * KiB, true);
  fill_pattern(c->data(), c->size(), 1);
  allocator.checkpoint_chunk(*c, 1);

  // Epoch-2 checkpoint starts: the payload lands in the in-progress slot
  // but the machine dies before the commit flip.
  fill_pattern(c->data(), c->size(), 2);
  allocator.precopy_chunk(*c, 2);
  // Simulate additional torn payload: a write that never got flushed.
  fill_pattern(c->data(), c->size(), 3);
  // Depth 1 cycles through slots 0 and 1; slot 0 holds epoch 1.
  const auto& rec = c->record();
  dev.write(rec.slot_off[1 - rec.committed], c->data(), 1000);

  Rng rng(7);
  dev.simulate_crash(rng);

  // Restart: the committed epoch-1 data must be intact.
  EXPECT_EQ(allocator.restore_chunk(*c), RestoreStatus::kOk);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 1));
}

TEST(IntegrationRestart, FileBackedRestartAcrossSessions) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_restart_" + std::to_string(::getpid()) +
                         ".nvm");
  fs::remove(path);

  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  cfg.backing_file = path.string();

  // Session 1: compute and checkpoint.
  {
    NvmDevice dev(cfg);
    vmem::Container container(dev);
    alloc::ChunkAllocator allocator(container);
    core::CheckpointManager mgr(allocator, core::CheckpointConfig{});
    alloc::Chunk* a = allocator.nvalloc("field_a", 128 * KiB, true);
    alloc::Chunk* b = allocator.nvalloc("field_b", 64 * KiB, true);
    fill_pattern(a->data(), a->size(), 11);
    fill_pattern(b->data(), b->size(), 22);
    mgr.nvchkptall();
  }

  // Session 2 (after "reboot"): nvalloc with the same ids restores the
  // committed payloads automatically (the paper's restart component).
  {
    NvmDevice dev(cfg);
    EXPECT_TRUE(dev.reopened());
    vmem::Container container(dev);
    EXPECT_TRUE(container.attached_existing());
    alloc::ChunkAllocator allocator(container);
    alloc::Chunk* a = allocator.nvalloc("field_a", 128 * KiB, true);
    alloc::Chunk* b = allocator.nvalloc("field_b", 64 * KiB, true);
    EXPECT_EQ(a->restore_status(), RestoreStatus::kOk);
    EXPECT_EQ(b->restore_status(), RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(a->data(), a->size(), 11));
    EXPECT_TRUE(check_pattern(b->data(), b->size(), 22));

    // Data survives further checkpoint cycles in the new session.
    fill_pattern(a->data(), a->size(), 33);
    core::CheckpointManager mgr(allocator, core::CheckpointConfig{});
    mgr.nvchkptall();
    fill_pattern(a->data(), a->size(), 44);
    EXPECT_EQ(core::RestartCoordinator(mgr, nullptr)
                  .restart_after(core::FailureKind::kSoft)
                  .status,
              RestoreStatus::kOk);
    EXPECT_TRUE(check_pattern(a->data(), a->size(), 33));
  }
  fs::remove(path);
}

TEST(IntegrationRestart, SizeChangeAcrossSessionsInvalidatesOldData) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("nvmcp_resize_" + std::to_string(::getpid()) +
                         ".nvm");
  fs::remove(path);
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  cfg.backing_file = path.string();
  {
    NvmDevice dev(cfg);
    vmem::Container container(dev);
    alloc::ChunkAllocator allocator(container);
    alloc::Chunk* a = allocator.nvalloc("grid", 64 * KiB, true);
    fill_pattern(a->data(), a->size(), 5);
    allocator.checkpoint_chunk(*a, 1);
  }
  {
    NvmDevice dev(cfg);
    vmem::Container container(dev);
    alloc::ChunkAllocator allocator(container);
    // Problem size changed: old payload cannot be meaningfully restored.
    alloc::Chunk* a = allocator.nvalloc("grid", 128 * KiB, true);
    EXPECT_EQ(a->restore_status(), RestoreStatus::kNoData);
  }
  fs::remove(path);
}

TEST(IntegrationRestart, CorruptLocalFallsBackToRemote) {
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.rank = 3;
  core::CheckpointManager mgr(allocator, ccfg);

  net::Interconnect link(/*bw=*/0.5e9, 0.1);
  NvmConfig rcfg;
  rcfg.capacity = 16 * MiB;
  rcfg.throttle = false;
  net::RemoteStore store(rcfg);
  net::RemoteMemory remote(link, store);

  alloc::Chunk* c = allocator.nvalloc("payload", 128 * KiB, true);
  fill_pattern(c->data(), c->size(), 77);
  mgr.nvchkptall();

  // Ship the committed version to the buddy node as a raw frame and
  // commit it there.
  std::vector<std::byte> staged(c->size());
  ASSERT_TRUE(allocator.read_committed(*c, staged.data()));
  compress::FrameEncoder enc;
  const auto fr = enc.encode(compress::Codec::kRaw, staged.data(),
                             staged.size(), nullptr, 0);
  remote.put(ccfg.rank, c->id(), enc.frame(), fr.frame_size,
             compress::max_frame_size(staged.size()), mgr.committed_epoch(),
             /*commit=*/true);

  // Local bit rot in *both* slots.
  const auto& rec = c->record();
  dev.data()[rec.slot_off[0] + 11] ^= std::byte{0xFF};
  dev.data()[rec.slot_off[1] + 11] ^= std::byte{0xFF};

  fill_pattern(c->data(), c->size(), 99);
  EXPECT_EQ(core::RestartCoordinator(mgr, &remote)
                .restart_after(core::FailureKind::kSoft)
                .status,
            RestoreStatus::kOkFromRemote);
  EXPECT_TRUE(check_pattern(c->data(), c->size(), 77));
}

TEST(IntegrationRestart, NoDataAnywhereIsReported) {
  NvmConfig cfg;
  cfg.capacity = 8 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointManager mgr(allocator, core::CheckpointConfig{});

  net::Interconnect link(0.5e9, 0.1);
  NvmConfig rcfg;
  rcfg.capacity = 8 * MiB;
  rcfg.throttle = false;
  net::RemoteStore store(rcfg);
  net::RemoteMemory remote(link, store);

  allocator.nvalloc("fresh", 32 * KiB, true);
  const RestoreStatus st = core::RestartCoordinator(mgr, &remote)
                               .restart_after(core::FailureKind::kSoft)
                               .status;
  EXPECT_TRUE(st == RestoreStatus::kNoData ||
              st == RestoreStatus::kChecksumMismatch);
}

}  // namespace
}  // namespace nvmcp
