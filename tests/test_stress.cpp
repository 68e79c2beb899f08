// Stress tests: concurrent application writers, the background pre-copy
// engine, and the remote helper all running against the same chunks, with
// end-to-end data verification. These are the races the protect/clear
// fault-counter dance and the two-version commit protocol exist for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <cstring>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/remote.hpp"

namespace nvmcp {
namespace {

/// Writer threads mutate chunks while the pre-copy engine runs and the
/// main thread takes coordinated checkpoints; after every checkpoint the
/// committed version must be internally consistent (its stored checksum
/// matches its payload -- torn copies would break it).
TEST(Stress, WritersVsPrecopyEngine) {
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);

  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kCpc;
  ccfg.precopy_scan_period = 2e-4;  // aggressive scanning
  core::CheckpointManager mgr(allocator, ccfg);

  constexpr int kChunks = 6;
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < kChunks; ++i) {
    chunks.push_back(allocator.nvalloc("stress_" + std::to_string(i),
                                       64 * KiB, true));
    std::memset(chunks.back()->data(), i, chunks.back()->size());
  }
  mgr.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kWriters = 2;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(static_cast<std::uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        alloc::Chunk* c = chunks[rng.next_below(kChunks)];
        auto* p = static_cast<std::uint64_t*>(c->data());
        const std::size_t words = c->size() / 8;
        // A burst of writes scattered across the chunk. Writers stripe
        // onto disjoint words: the race under test is stores vs the
        // copy engine (by design), not writer-vs-writer on one word.
        for (int i = 0; i < 64; ++i) {
          p[kWriters * rng.next_below(words / kWriters) + w] =
              rng.next_u64();
        }
      }
    });
  }

  for (int iter = 0; iter < 30; ++iter) {
    precise_sleep(2e-3);
    mgr.nvchkptall();
    // Every committed slot must verify against its stored checksum.
    std::vector<std::byte> buf(64 * KiB);
    for (alloc::Chunk* c : chunks) {
      ASSERT_TRUE(c->record().has_committed()) << "iter " << iter;
      EXPECT_TRUE(allocator.read_committed(*c, buf.data()))
          << "torn commit at iter " << iter;
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  mgr.stop();

  const core::CheckpointStats s = mgr.stats();
  EXPECT_EQ(s.local_checkpoints, 30u);
  EXPECT_GT(s.protection_faults, 0u);
}

/// The remote helper ships chunks while local checkpoints keep committing
/// new epochs; after a final coordination, every remote chunk must
/// verify and carry one single epoch across the cut.
TEST(Stress, RemoteHelperVsLocalCommits) {
  NvmConfig cfg;
  cfg.capacity = 32 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  core::CheckpointManager mgr(allocator, ccfg);

  net::Interconnect link(4.0e9, 0.1);
  NvmConfig scfg;
  scfg.capacity = 32 * MiB;
  scfg.throttle = false;
  net::RemoteStore store(scfg);
  net::RemoteMemory remote(link, store);
  core::RemoteConfig rcfg;
  rcfg.policy = core::PrecopyPolicy::kCpc;
  rcfg.interval = 0.02;
  rcfg.scan_period = 5e-4;
  core::RemoteCheckpointer helper({&mgr}, remote, rcfg);

  constexpr int kChunks = 4;
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < kChunks; ++i) {
    chunks.push_back(allocator.nvalloc("rc_" + std::to_string(i),
                                       32 * KiB, true));
  }
  helper.start();

  Rng rng(5);
  for (int iter = 0; iter < 25; ++iter) {
    for (alloc::Chunk* c : chunks) {
      auto* p = static_cast<std::uint64_t*>(c->data());
      for (std::size_t w = 0; w < c->size() / 8; ++w) p[w] = rng.next_u64();
    }
    mgr.nvchkptall();
    precise_sleep(2e-3);
  }
  helper.coordinate_now();
  helper.stop();

  // The final remote cut: every chunk fetches, verifies, and reports the
  // same epoch (the coordination's consistent snapshot property).
  std::uint64_t cut_epoch = 0;
  std::vector<std::byte> frame(compress::max_frame_size(32 * KiB));
  std::vector<std::byte> buf(32 * KiB);
  for (alloc::Chunk* c : chunks) {
    const std::size_t fn = remote.get(0, c->id(), frame.data(), frame.size());
    EXPECT_EQ(compress::decode_frame(frame.data(), fn, nullptr, buf.data(),
                                     c->size()),
              compress::DecodeStatus::kOk);
    const std::uint64_t e = store.committed_epoch(0, c->id());
    EXPECT_GT(e, 0u);
    if (cut_epoch == 0) cut_epoch = e;
    EXPECT_EQ(e, cut_epoch) << "remote cut mixes epochs";
  }
  EXPECT_EQ(cut_epoch, mgr.committed_epoch());
}

/// The remote helper pre-copies, and another thread coordinates, while
/// the application allocates, commits and deletes a transient chunk in a
/// loop. The helper touches a listed chunk only under
/// ChunkAllocator::with_live, so no scan or send reads a freed chunk
/// (ASan checks that), and the chunks that survive the churn hard-restore
/// byte-exact from the buddy.
TEST(Stress, RemoteHelperVsTransientChunkDelete) {
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  core::CheckpointManager mgr(allocator, ccfg);

  net::Interconnect link(4.0e9, 0.1);
  NvmConfig scfg;
  scfg.capacity = 64 * MiB;
  scfg.throttle = false;
  net::RemoteStore store(scfg);
  net::RemoteMemory remote(link, store);
  core::RemoteConfig rcfg;
  rcfg.policy = core::PrecopyPolicy::kCpc;
  rcfg.interval = 0.01;
  rcfg.scan_period = 2e-4;
  core::RemoteCheckpointer helper({&mgr}, remote, rcfg);

  constexpr int kSurvivors = 3;
  std::vector<alloc::Chunk*> survivors;
  for (int i = 0; i < kSurvivors; ++i) {
    survivors.push_back(allocator.nvalloc("keep_" + std::to_string(i),
                                          32 * KiB, true));
    std::memset(survivors.back()->data(), 0x30 + i, 32 * KiB);
  }
  mgr.nvchkptall();
  helper.start();

  std::atomic<bool> stop{false};
  std::thread coordinator([&] {
    while (!stop.load(std::memory_order_relaxed)) helper.coordinate_now();
  });
  const Stopwatch sw;
  for (int round = 0; round < 300 || sw.elapsed() < 0.3; ++round) {
    alloc::Chunk* t = allocator.nvalloc("transient", 64 * KiB, true);
    std::memset(t->data(), round & 0xFF, t->size());
    mgr.nvchkptall();
    allocator.nvdelete(t->id());
  }
  stop.store(true);
  coordinator.join();
  ASSERT_FALSE(helper.coordinate_now().degraded);
  helper.stop();

  // The node dies: its DRAM goes, and the survivors come back from the
  // buddy alone.
  for (alloc::Chunk* c : survivors) std::memset(c->data(), 0xEE, c->size());
  const core::RestartReport rep =
      core::RestartCoordinator(mgr, &remote)
          .restart_after(core::FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_remote, kSurvivors);
  for (int i = 0; i < kSurvivors; ++i) {
    std::vector<std::byte> expect(32 * KiB, std::byte(0x30 + i));
    EXPECT_EQ(0, std::memcmp(survivors[i]->data(), expect.data(),
                             expect.size()))
        << "survivor " << i;
  }
}

/// Allocation and deletion racing the pre-copy engine's chunk scans.
TEST(Stress, AllocDeleteChurnWithEngine) {
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kCpc;
  ccfg.precopy_scan_period = 2e-4;
  core::CheckpointManager mgr(allocator, ccfg);

  // A stable chunk that must survive the churn intact.
  alloc::Chunk* anchor = allocator.nvalloc("anchor", 32 * KiB, true);
  std::memset(anchor->data(), 0x5A, anchor->size());
  mgr.start();

  for (int round = 0; round < 40; ++round) {
    const std::string name = "churn_" + std::to_string(round % 5);
    alloc::Chunk* c =
        allocator.nvalloc(name, 16 * KiB + 1024u * (round % 3), true);
    std::memset(c->data(), round, c->size());
    if (round % 4 == 0) mgr.nvchkptall();
    allocator.nvdelete(c->id());
  }
  mgr.nvchkptall();
  mgr.stop();

  std::vector<std::byte> expect(anchor->size(), std::byte{0x5A});
  EXPECT_EQ(allocator.restore_chunk(*anchor), RestoreStatus::kOk);
  EXPECT_EQ(0, std::memcmp(anchor->data(), expect.data(), expect.size()));
}

/// Many epochs on a file-backed device: wear accounting moves, the
/// metadata stays consistent, and the final state restores across a
/// reopen.
TEST(Stress, LongEpochChainFileBacked) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() /
       ("nvmcp_chain_" + std::to_string(::getpid()) + ".nvm")).string();
  fs::remove(path);
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  cfg.backing_file = path;

  std::uint64_t final_seed = 0;
  {
    NvmDevice dev(cfg);
    vmem::Container container(dev);
    alloc::ChunkAllocator allocator(container);
    core::CheckpointManager mgr(allocator, core::CheckpointConfig{});
    alloc::Chunk* c = allocator.nvalloc("chain", 64 * KiB, true);
    Rng rng(1);
    for (int e = 0; e < 100; ++e) {
      final_seed = rng.next_u64();
      auto* p = static_cast<std::uint64_t*>(c->data());
      Rng fill(final_seed);
      for (std::size_t w = 0; w < c->size() / 8; ++w) {
        p[w] = fill.next_u64();
      }
      mgr.nvchkptall();
    }
    EXPECT_EQ(mgr.committed_epoch(), 100u);
    EXPECT_GT(dev.stats().max_page_wear, 40u);  // slots alternate
  }
  {
    NvmDevice dev(cfg);
    vmem::Container container(dev);
    alloc::ChunkAllocator allocator(container);
    alloc::Chunk* c = allocator.nvalloc("chain", 64 * KiB, true);
    ASSERT_EQ(c->restore_status(), RestoreStatus::kOk);
    Rng fill(final_seed);
    const auto* p = static_cast<const std::uint64_t*>(c->data());
    for (std::size_t w = 0; w < c->size() / 8; ++w) {
      ASSERT_EQ(p[w], fill.next_u64()) << "word " << w;
    }
  }
  fs::remove(path);
}

/// Version-ring GC racing continuous commit churn: a dedicated thread runs
/// saturated GC passes (watermark near zero, so every pass reclaims down
/// to the floor) while the main thread commits round after round.
/// Invariants under the race: the retention floor is never violated, the
/// newest committed version always verifies byte-exact, and a pinned
/// restore source survives any amount of saturation until unpinned.
TEST(Stress, RingGcVsCommitChurn) {
  NvmConfig cfg;
  // Sized so steady-state ring occupancy (~3 MiB of slots) stays above
  // the minimum watermark: every GC pass runs saturated.
  cfg.capacity = 32 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.ring_depth = 6;
  alloc::ChunkAllocator allocator(container, aopts);

  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  ccfg.epoch_gc_background = false;  // we drive (and race) the GC ourselves
  ccfg.epoch_gc_watermark = 0.05;    // the clamp floor: always saturated
  ccfg.epoch_gc_floor = 2;
  core::CheckpointManager mgr(allocator, ccfg);
  ASSERT_NE(mgr.epoch_gc(), nullptr);

  constexpr int kChunks = 6;
  constexpr std::size_t kBytes = 192 * KiB;
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < kChunks; ++i) {
    chunks.push_back(allocator.nvalloc("gc_churn_" + std::to_string(i),
                                       kBytes, true));
  }
  const auto seed = [](int chunk, std::uint64_t round) {
    return 0x9e3779b9ull * (round * kChunks + chunk + 1);
  };
  const auto refill = [&](alloc::Chunk& c, std::uint64_t s) {
    Rng rng(s);
    auto* p = static_cast<std::uint64_t*>(c.data());
    for (std::size_t w = 0; w < c.size() / 8; ++w) p[w] = rng.next_u64();
  };
  const auto matches = [&](const void* data, std::uint64_t s) {
    Rng rng(s);
    const auto* p = static_cast<const std::uint64_t*>(data);
    for (std::size_t w = 0; w < kBytes / 8; ++w) {
      if (p[w] != rng.next_u64()) return false;
    }
    return true;
  };

  std::atomic<bool> stop{false};
  std::thread gc([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.epoch_gc()->run_pass();
      std::this_thread::yield();
    }
  });

  std::vector<std::byte> scratch(kBytes);
  constexpr std::uint64_t kPinEpoch = 12;
  constexpr std::uint64_t kRounds = 36;
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    for (int i = 0; i < kChunks; ++i) refill(*chunks[i], seed(i, round));
    mgr.nvchkptall();
    if (round == kPinEpoch) allocator.pin_epoch(*chunks[0], kPinEpoch);
    for (int i = 0; i < kChunks; ++i) {
      // Newest committed version stays byte-exact under reclamation (the
      // GC must never touch the newest slot).
      ASSERT_TRUE(allocator.read_committed(*chunks[i], scratch.data()))
          << "chunk " << i << " round " << round;
      ASSERT_TRUE(matches(scratch.data(), seed(i, round)))
          << "chunk " << i << " round " << round;
      // Retention floor: even fully saturated, each chunk keeps at least
      // the floor's worth of committed epochs, newest first.
      const auto epochs = allocator.retained_epochs(*chunks[i]);
      ASSERT_FALSE(epochs.empty());
      EXPECT_EQ(epochs.front(), round);
      EXPECT_GE(epochs.size(), std::min<std::size_t>(round, 2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  gc.join();

  // The pinned epoch outlived 24 saturated rounds past its commit and
  // still restores byte-exact.
  EXPECT_EQ(allocator.restore_chunk(*chunks[0], kPinEpoch),
            RestoreStatus::kOkStale);
  EXPECT_TRUE(matches(chunks[0]->data(), seed(0, kPinEpoch)));
  allocator.unpin_epoch(*chunks[0], kPinEpoch);

  // Unpinned, epoch 12 is still within the count-based floor (the churn
  // trimmed chunk 0 to exactly {newest, 12}); one more commit pushes the
  // chunk above the floor and the next saturated pass reclaims it as the
  // globally-oldest slot.
  for (int i = 0; i < kChunks; ++i) refill(*chunks[i], seed(i, kRounds + 1));
  mgr.nvchkptall();
  mgr.epoch_gc()->run_pass();
  const auto epochs = allocator.retained_epochs(*chunks[0]);
  EXPECT_TRUE(std::find(epochs.begin(), epochs.end(), kPinEpoch) ==
              epochs.end());
  EXPECT_GT(mgr.metrics().counter("epoch.gc.slots_reclaimed").value(), 0u);
}

/// A writer stores into a kSoftware chunk and notifies while the main
/// thread pre-copies (batched re-arm) and commits that chunk in a loop,
/// each round letting a notify land between the arm and the chunk's
/// clear-and-recheck. That must never leave the chunk clean *and*
/// disarmed: one quiesced commit must then leave the slot equal to DRAM.
TEST(Stress, StoreRacingPrecopyArmIsNeverLost) {
  NvmConfig cfg;
  cfg.capacity = 8 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator::Options opts;
  opts.track_mode = vmem::TrackMode::kSoftware;
  alloc::ChunkAllocator allocator(container, opts);
  alloc::Chunk* c = allocator.nvalloc("armed", 4 * KiB, true);
  auto* words = static_cast<std::uint64_t*>(c->data());
  const std::size_t nwords = c->size() / 8;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stores{0};
  std::thread writer([&] {
    for (std::uint64_t v = 1; !stop.load(std::memory_order_acquire); ++v) {
      words[v % nwords] = v;
      c->notify_write();
      stores.fetch_add(1, std::memory_order_release);
    }
  });
  const auto await_store = [&] {  // >= 1 full store + notify from now
    const std::uint64_t seen = stores.load(std::memory_order_acquire);
    while (stores.load(std::memory_order_acquire) < seen + 2) {
      std::this_thread::yield();
    }
  };
  for (std::uint64_t epoch = 1; epoch <= 200; ++epoch) {
    allocator.arm_chunks({c});
    await_store();
    allocator.precopy_chunk(*c, epoch, nullptr, /*skip_arm=*/true);
    allocator.commit_chunk(*c, epoch);
  }
  await_store();  // lands after the last copy
  stop.store(true, std::memory_order_release);
  writer.join();

  if (c->dirty_local()) allocator.checkpoint_chunk(*c, 201);
  std::vector<std::byte> slot(c->size());
  ASSERT_TRUE(allocator.read_committed(*c, slot.data()));
  EXPECT_EQ(std::memcmp(slot.data(), c->data(), c->size()), 0)
      << "a store that raced pre-copy arming was lost";
}

}  // namespace
}  // namespace nvmcp
