// Tests for CheckpointManager: coordinated checkpoints, commit-from-precopy
// vs recopy vs skip outcomes, the pre-copy engine for each policy, learned
// interval/data estimates, and restore.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/manager.hpp"
#include "vmem/protection.hpp"

namespace nvmcp::core {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() {
    NvmConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.throttle = false;
    dev_ = std::make_unique<NvmDevice>(cfg);
    container_ = std::make_unique<vmem::Container>(*dev_);
    allocator_ = std::make_unique<alloc::ChunkAllocator>(*container_);
  }

  std::unique_ptr<CheckpointManager> make_manager(PrecopyPolicy policy,
                                                  double bw = 0) {
    CheckpointConfig cfg;
    cfg.local_policy = policy;
    cfg.nvm_bw_per_core = bw;
    cfg.precopy_scan_period = 1e-3;
    return std::make_unique<CheckpointManager>(*allocator_, cfg);
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

TEST_F(ManagerTest, CheckpointCommitsAllDirtyChunks) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 32 * KiB, true);
  alloc::Chunk* b = allocator_->nvalloc("b", 64 * KiB, true);
  fill(*a, 1);
  fill(*b, 2);
  const double blocking = mgr->nvchkptall();
  EXPECT_GE(blocking, 0.0);
  EXPECT_EQ(mgr->committed_epoch(), 1u);
  EXPECT_TRUE(a->record().has_committed());
  EXPECT_TRUE(b->record().has_committed());
  const CheckpointStats s = mgr->stats();
  EXPECT_EQ(s.local_checkpoints, 1u);
  EXPECT_EQ(s.chunks_recopied_dirty, 2u);
  EXPECT_EQ(s.bytes_coordinated, 96 * KiB);
}

TEST_F(ManagerTest, NonPersistentChunksAreNotCheckpointed) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* scratch = allocator_->nvalloc("scratch", 16 * KiB, false);
  fill(*scratch, 3);
  mgr->nvchkptall();
  EXPECT_FALSE(scratch->record().has_committed());
}

TEST_F(ManagerTest, UnmodifiedChunkSkippedOnSecondCheckpoint) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 32 * KiB, true);
  fill(*a, 1);
  mgr->nvchkptall();
  mgr->nvchkptall();  // nothing changed in between
  const CheckpointStats s = mgr->stats();
  EXPECT_EQ(s.chunks_skipped_unmodified, 1u);
  // The committed version still restores the correct (old) data.
  fill(*a, 9);
  EXPECT_EQ(mgr->restore_all(), RestoreStatus::kOk);
}

TEST_F(ManagerTest, EpochAdvancesPerCheckpoint) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 8 * KiB, true);
  for (int i = 1; i <= 3; ++i) {
    fill(*a, static_cast<std::uint64_t>(i));
    mgr->nvchkptall();
    EXPECT_EQ(mgr->committed_epoch(), static_cast<std::uint64_t>(i));
  }
}

TEST_F(ManagerTest, LearnedEstimatesAfterFirstCheckpoint) {
  auto mgr = make_manager(PrecopyPolicy::kDcpc);
  alloc::Chunk* a = allocator_->nvalloc("a", 128 * KiB, true);
  fill(*a, 1);
  EXPECT_EQ(mgr->learned_interval(), 0.0);
  precise_sleep(0.02);
  mgr->nvchkptall();
  EXPECT_GT(mgr->learned_interval(), 0.015);
  EXPECT_EQ(mgr->learned_data_size(), 128.0 * KiB);
}

TEST_F(ManagerTest, CpcEnginePrecopiesInBackground) {
  auto mgr = make_manager(PrecopyPolicy::kCpc);
  alloc::Chunk* a = allocator_->nvalloc("a", 256 * KiB, true);
  fill(*a, 1);
  mgr->start();
  // CPC needs no learning phase: the engine should pick the chunk up.
  const Stopwatch sw;
  while (a->dirty_local() && sw.elapsed() < 2.0) precise_sleep(1e-3);
  // The engine clears the flag as its copy starts, under the commit mutex:
  // taking the mutex waits for that copy to finish.
  { const std::lock_guard<std::mutex> lock(mgr->commit_mutex()); }
  EXPECT_FALSE(a->dirty_local());
  EXPECT_EQ(a->precopied_epoch(), 1u);

  // The coordinated step now only commits (no residual copy).
  mgr->nvchkptall();
  const CheckpointStats s = mgr->stats();
  EXPECT_EQ(s.chunks_committed_from_precopy, 1u);
  EXPECT_EQ(s.bytes_coordinated, 0u);
  EXPECT_GE(s.bytes_precopied, 256 * KiB);
  mgr->stop();
}

TEST_F(ManagerTest, DcpcWaitsForLearningPhase) {
  auto mgr = make_manager(PrecopyPolicy::kDcpc);
  alloc::Chunk* a = allocator_->nvalloc("a", 256 * KiB, true);
  fill(*a, 1);
  mgr->start();
  precise_sleep(0.05);
  // No checkpoint yet -> still learning -> no pre-copy.
  EXPECT_TRUE(a->dirty_local());
  EXPECT_EQ(mgr->stats().bytes_precopied, 0u);

  mgr->nvchkptall();  // ends the learning phase
  fill(*a, 2);
  const Stopwatch sw;
  while (a->dirty_local() && sw.elapsed() < 2.0) precise_sleep(1e-3);
  EXPECT_FALSE(a->dirty_local()) << "post-learning, DCPC should pre-copy";
  mgr->stop();
}

TEST_F(ManagerTest, DcpcpSkipsHotChunksUntilPredictedCount) {
  auto mgr = make_manager(PrecopyPolicy::kDcpcp);
  alloc::Chunk* hot = allocator_->nvalloc("hot", 64 * KiB, true);

  // Learning interval: the chunk is modified 3 times. The first pre-copy
  // arms tracking (fresh chunks start unprotected); each following write
  // faults, counts a modification, and is re-armed by the next pre-copy.
  allocator_->precopy_chunk(*hot, mgr->next_epoch());
  for (int m = 0; m < 3; ++m) {
    fill(*hot, static_cast<std::uint64_t>(m));
    allocator_->precopy_chunk(*hot, mgr->next_epoch());  // re-arm tracking
  }
  mgr->nvchkptall();
  EXPECT_EQ(mgr->prediction().predicted(hot->id()), 3u);

  // Next interval: after only one modification the chunk is expected to
  // change twice more -> not ready for pre-copy.
  fill(*hot, 10);
  EXPECT_FALSE(mgr->prediction().ready_for_precopy(
      hot->id(), hot->tracker().mods_in_interval.load()));
}

TEST_F(ManagerTest, NvchkptidCheckpointsSingleChunk) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 16 * KiB, true);
  alloc::Chunk* b = allocator_->nvalloc("b", 16 * KiB, true);
  fill(*a, 1);
  fill(*b, 2);
  mgr->nvchkptid(a->id());
  EXPECT_TRUE(a->record().has_committed());
  EXPECT_FALSE(b->record().has_committed());
  EXPECT_THROW(mgr->nvchkptid(12345), NvmcpError);
}

TEST_F(ManagerTest, RestoreAllRecoversEveryChunk) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 32 * KiB, true);
  alloc::Chunk* b = allocator_->nvalloc("b", 32 * KiB, true);
  fill(*a, 1);
  fill(*b, 2);
  mgr->nvchkptall();
  std::vector<std::byte> va(a->size()), vb(b->size());
  std::memcpy(va.data(), a->data(), a->size());
  std::memcpy(vb.data(), b->data(), b->size());
  fill(*a, 8);
  fill(*b, 9);
  EXPECT_EQ(mgr->restore_all(), RestoreStatus::kOk);
  EXPECT_EQ(0, std::memcmp(a->data(), va.data(), a->size()));
  EXPECT_EQ(0, std::memcmp(b->data(), vb.data(), b->size()));
}

TEST_F(ManagerTest, StreamLimiterSlowsBlockingStep) {
  auto fast = make_manager(PrecopyPolicy::kNone, /*bw=*/0);
  alloc::Chunk* a = allocator_->nvalloc("a", 1 * MiB, true);
  fill(*a, 1);
  const double t_fast = fast->nvchkptall();

  auto slow = make_manager(PrecopyPolicy::kNone, /*bw=*/16.0 * MiB);
  fill(*a, 2);
  const double t_slow = slow->nvchkptall();
  EXPECT_GT(t_slow, t_fast);
  EXPECT_GT(t_slow, 0.03);  // 1 MiB at 16 MiB/s ~ 62 ms
}

TEST_F(ManagerTest, StartStopIdempotent) {
  auto mgr = make_manager(PrecopyPolicy::kCpc);
  mgr->start();
  mgr->start();
  mgr->stop();
  mgr->stop();
}

TEST_F(ManagerTest, FaultCountSurfacesInStats) {
  auto mgr = make_manager(PrecopyPolicy::kNone);
  alloc::Chunk* a = allocator_->nvalloc("a", 16 * KiB, true);
  fill(*a, 1);
  mgr->nvchkptall();
  fill(*a, 2);  // one protection fault (chunk was re-armed by the copy)
  EXPECT_GE(mgr->stats().protection_faults, 1u);
}

// --- parallel data path (copy_threads) ---------------------------------

/// One independent device + allocator + manager stack, so runs at
/// different thread counts never share NVM state.
struct Stack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

/// Chunk shapes for the equivalence runs: mixed sizes (so the
/// largest-first sharding actually has to balance), plus one
/// non-persistent chunk that must stay untouched by the commit.
struct ChunkShape {
  const char* name;
  std::size_t size;
  bool persistent;
};
constexpr ChunkShape kShapes[] = {
    {"eq_a", 192 * KiB, true}, {"eq_b", 16 * KiB, true},
    {"eq_c", 64 * KiB, true},  {"eq_d", 128 * KiB, true},
    {"eq_e", 8 * KiB, true},   {"eq_f", 48 * KiB, true},
    {"eq_g", 96 * KiB, true},  {"eq_scratch", 32 * KiB, false},
};

Stack make_stack(PrecopyPolicy policy, std::size_t copy_threads) {
  Stack s;
  NvmConfig ncfg;
  ncfg.capacity = 64 * MiB;
  ncfg.throttle = false;
  s.dev = std::make_unique<NvmDevice>(ncfg);
  s.cont = std::make_unique<vmem::Container>(*s.dev);
  s.alloc = std::make_unique<alloc::ChunkAllocator>(*s.cont);
  CheckpointConfig ccfg;
  ccfg.local_policy = policy;
  ccfg.nvm_bw_per_core = 0;
  ccfg.precopy_scan_period = 1e-3;
  ccfg.copy_threads = copy_threads;
  s.mgr = std::make_unique<CheckpointManager>(*s.alloc, ccfg);
  for (const ChunkShape& sh : kShapes) {
    s.chunks.push_back(s.alloc->nvalloc(sh.name, sh.size, sh.persistent));
  }
  return s;
}

void fill_chunk(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
}

/// Everything the coordinated commit persists or counts, captured after a
/// run so serial and sharded runs can be compared field by field.
struct CommitObservation {
  std::uint64_t bytes_coordinated = 0;
  std::uint64_t local_checkpoints = 0;
  std::uint64_t committed_epoch = 0;
  std::vector<std::uint64_t> checksums;  // committed slot, per chunk
  std::vector<std::uint64_t> epochs;     // committed slot, per chunk
  std::vector<std::vector<std::byte>> restored;
};

CommitObservation run_and_observe(std::size_t copy_threads) {
  Stack s = make_stack(PrecopyPolicy::kNone, copy_threads);
  EXPECT_EQ(s.mgr->copy_threads(), copy_threads);
  // Two checkpoints with a partial re-dirty in between, so the second
  // commit exercises recopy, skip and (non-persistent) ignore together.
  for (std::size_t i = 0; i < s.chunks.size(); ++i) {
    fill_chunk(*s.chunks[i], 100 + i);
  }
  s.mgr->nvchkptall();
  for (std::size_t i = 0; i < s.chunks.size(); i += 2) {
    fill_chunk(*s.chunks[i], 200 + i);
  }
  s.mgr->nvchkptall();

  CommitObservation ob;
  const CheckpointStats st = s.mgr->stats();
  ob.bytes_coordinated = st.bytes_coordinated;
  ob.local_checkpoints = st.local_checkpoints;
  ob.committed_epoch = s.mgr->committed_epoch();
  for (alloc::Chunk* c : s.chunks) {
    if (!c->persistent()) continue;
    const vmem::ChunkRecord& rec = c->record();
    EXPECT_TRUE(rec.has_committed()) << c->record().name;
    ob.checksums.push_back(rec.checksum[rec.committed]);
    ob.epochs.push_back(rec.epoch[rec.committed]);
  }
  // Scribble over DRAM, then restore and capture the recovered payloads
  // (the restart-path byte verification of the acceptance criteria).
  for (alloc::Chunk* c : s.chunks) fill_chunk(*c, 999);
  EXPECT_EQ(s.mgr->restore_all(), RestoreStatus::kOk);
  for (alloc::Chunk* c : s.chunks) {
    if (!c->persistent()) continue;
    std::vector<std::byte> bytes(c->size());
    std::memcpy(bytes.data(), c->data(), c->size());
    ob.restored.push_back(std::move(bytes));
  }
  return ob;
}

// The tentpole's equivalence criterion: sharding the commit across 4
// workers must change nothing observable — same coordinated bytes, same
// per-chunk committed checksums and epochs, same restored payloads.
TEST_F(ManagerTest, ParallelCommitMatchesSerialByteForByte) {
  const CommitObservation serial = run_and_observe(1);
  const CommitObservation sharded = run_and_observe(4);

  EXPECT_EQ(serial.bytes_coordinated, sharded.bytes_coordinated);
  EXPECT_EQ(serial.local_checkpoints, sharded.local_checkpoints);
  EXPECT_EQ(serial.committed_epoch, sharded.committed_epoch);
  ASSERT_EQ(serial.checksums.size(), sharded.checksums.size());
  for (std::size_t i = 0; i < serial.checksums.size(); ++i) {
    EXPECT_EQ(serial.checksums[i], sharded.checksums[i]) << "chunk " << i;
    EXPECT_EQ(serial.epochs[i], sharded.epochs[i]) << "chunk " << i;
  }
  ASSERT_EQ(serial.restored.size(), sharded.restored.size());
  for (std::size_t i = 0; i < serial.restored.size(); ++i) {
    ASSERT_EQ(serial.restored[i].size(), sharded.restored[i].size());
    EXPECT_EQ(0, std::memcmp(serial.restored[i].data(),
                             sharded.restored[i].data(),
                             serial.restored[i].size()))
        << "chunk " << i;
  }
}

// Sharded commit racing the background pre-copy engine: the engine
// pre-copies between coordinated steps while rounds keep re-dirtying;
// every committed chunk must still restore to exactly what was in DRAM at
// its last checkpoint. The fills hold the commit mutex so they interleave
// with engine copies at batch granularity (chunks go stale after being
// pre-copied and must be recopied) without the byte-level store-vs-copy
// overlap, which is test_stress territory and a TSan report by design.
TEST_F(ManagerTest, ParallelCommitRacingPrecopyRestoresCleanly) {
  Stack s = make_stack(PrecopyPolicy::kCpc, 4);
  s.mgr->start();
  std::vector<std::vector<std::byte>> golden(s.chunks.size());
  for (int round = 1; round <= 4; ++round) {
    {
      std::lock_guard<std::mutex> fill_lock(s.mgr->commit_mutex());
      for (std::size_t i = 0; i < s.chunks.size(); ++i) {
        fill_chunk(*s.chunks[i],
                   static_cast<std::uint64_t>(round) * 1000 + i);
      }
    }
    precise_sleep(2e-3);  // let the pre-copy engine race ahead
    s.mgr->nvchkptall();
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      if (!s.chunks[i]->persistent()) continue;
      golden[i].resize(s.chunks[i]->size());
      std::memcpy(golden[i].data(), s.chunks[i]->data(),
                  s.chunks[i]->size());
    }
  }
  s.mgr->stop();
  for (alloc::Chunk* c : s.chunks) fill_chunk(*c, 31337);
  EXPECT_EQ(s.mgr->restore_all(), RestoreStatus::kOk);
  for (std::size_t i = 0; i < s.chunks.size(); ++i) {
    if (!s.chunks[i]->persistent()) continue;
    EXPECT_EQ(0, std::memcmp(s.chunks[i]->data(), golden[i].data(),
                             golden[i].size()))
        << "chunk " << i;
  }
}

// --- dirty-tracking modes (sub-page ranges, batched re-arm) ------------

/// Stack whose allocator pins a specific dirty-tracking mode (the fixture
/// allocator uses the default, env-resolved options).
struct ModeStack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

constexpr const char* kModeNames[] = {"sp_a", "sp_b", "sp_c",
                                      "sp_d", "sp_e", "sp_f"};

ModeStack make_mode_stack(vmem::TrackMode mode, int batch_rearm,
                          std::size_t copy_threads) {
  ModeStack s;
  NvmConfig ncfg;
  ncfg.capacity = 64 * MiB;
  ncfg.throttle = false;
  s.dev = std::make_unique<NvmDevice>(ncfg);
  s.cont = std::make_unique<vmem::Container>(*s.dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.track_mode = mode;
  s.alloc = std::make_unique<alloc::ChunkAllocator>(*s.cont, aopts);
  CheckpointConfig ccfg;
  ccfg.local_policy = PrecopyPolicy::kNone;
  ccfg.nvm_bw_per_core = 0;
  ccfg.copy_threads = copy_threads;
  ccfg.batch_rearm = batch_rearm;
  s.mgr = std::make_unique<CheckpointManager>(*s.alloc, ccfg);
  for (const char* name : kModeNames) {
    s.chunks.push_back(s.alloc->nvalloc(name, 16 * KiB, true));
  }
  return s;
}

/// A handful of small 8-aligned stores per chunk (64..192 B each, well
/// under the coverage fallback), logged after the store under kWriteLog
/// or flagged wholesale under kSoftware.
void mutate_small(alloc::Chunk& c, std::uint64_t seed, bool writelog) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (int w = 0; w < 12; ++w) {
    const std::size_t len = 64 + rng.next_below(3) * 64;
    const std::size_t off = rng.next_below(c.size() - len) & ~std::size_t{7};
    for (std::size_t i = 0; i + 8 <= len; i += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p + off + i, &v, 8);
    }
    if (writelog) c.log_write(off, len);
  }
  if (!writelog) c.notify_write();
}

struct ModeObservation {
  std::uint64_t device_bytes_written = 0;
  std::vector<std::vector<std::byte>> restored;
};

/// Full fill + checkpoint, then four rounds of small mutations + checkpoint
/// (so BOTH version slots take incremental commits), then scribble and
/// restore. Every mode sees the identical store sequence.
ModeObservation run_mode(vmem::TrackMode mode) {
  ModeStack s = make_mode_stack(mode, -1, 4);
  const bool writelog = mode == vmem::TrackMode::kWriteLog;
  for (std::size_t i = 0; i < s.chunks.size(); ++i) {
    fill_chunk(*s.chunks[i], 7000 + i);
    if (writelog) s.chunks[i]->log_write(0, s.chunks[i]->size());
  }
  s.mgr->nvchkptall();
  for (std::uint64_t round = 1; round <= 4; ++round) {
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      mutate_small(*s.chunks[i], round * 100 + i, writelog);
    }
    s.mgr->nvchkptall();
  }
  std::vector<std::vector<std::byte>> golden;
  for (alloc::Chunk* c : s.chunks) {
    golden.emplace_back(static_cast<std::byte*>(c->data()),
                        static_cast<std::byte*>(c->data()) + c->size());
  }
  for (alloc::Chunk* c : s.chunks) fill_chunk(*c, 424242);
  EXPECT_EQ(s.mgr->restore_all(), RestoreStatus::kOk);
  ModeObservation ob;
  ob.device_bytes_written = s.dev->stats().bytes_written;
  for (std::size_t i = 0; i < s.chunks.size(); ++i) {
    alloc::Chunk* c = s.chunks[i];
    EXPECT_EQ(0, std::memcmp(c->data(), golden[i].data(), c->size()))
        << "chunk " << i << " after restore";
    ob.restored.emplace_back(static_cast<std::byte*>(c->data()),
                             static_cast<std::byte*>(c->data()) + c->size());
  }
  return ob;
}

// Sub-page range commits (kWriteLog) must be byte-for-byte equivalent to
// whole-chunk commits (kSoftware) under the same store sequence — while
// writing fewer bytes to the device, proving the range path (not the
// whole-chunk fallback) carried the incremental rounds.
TEST_F(ManagerTest, SubPageCommitMatchesWholeChunkByteForByte) {
  const ModeObservation ranges = run_mode(vmem::TrackMode::kWriteLog);
  const ModeObservation whole = run_mode(vmem::TrackMode::kSoftware);
  ASSERT_EQ(ranges.restored.size(), whole.restored.size());
  for (std::size_t i = 0; i < ranges.restored.size(); ++i) {
    ASSERT_EQ(ranges.restored[i].size(), whole.restored[i].size());
    EXPECT_EQ(0, std::memcmp(ranges.restored[i].data(),
                             whole.restored[i].data(),
                             ranges.restored[i].size()))
        << "chunk " << i;
  }
  EXPECT_LT(ranges.device_bytes_written, whole.device_bytes_written);
}

// Batched re-arm is a syscall-count optimisation only: with the identical
// fault-driven schedule it must commit identical bytes while issuing no
// more mprotect calls than the per-chunk path.
TEST_F(ManagerTest, BatchRearmMatchesPerChunkRearmByteForByte) {
  auto run = [](int batch_rearm, std::uint64_t* mprotect_calls) {
    ModeStack s = make_mode_stack(vmem::TrackMode::kMprotect, batch_rearm, 1);
    const std::uint64_t calls0 =
        vmem::ProtectionManager::instance().total_mprotect_calls();
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      fill_chunk(*s.chunks[i], 5000 + i);
    }
    s.mgr->nvchkptall();
    for (std::uint64_t round = 1; round <= 3; ++round) {
      for (std::size_t i = 0; i < s.chunks.size(); ++i) {
        mutate_small(*s.chunks[i], round * 17 + i, false);
      }
      s.mgr->nvchkptall();
    }
    *mprotect_calls =
        vmem::ProtectionManager::instance().total_mprotect_calls() - calls0;
    std::vector<std::vector<std::byte>> golden;
    for (alloc::Chunk* c : s.chunks) {
      golden.emplace_back(static_cast<std::byte*>(c->data()),
                          static_cast<std::byte*>(c->data()) + c->size());
    }
    for (alloc::Chunk* c : s.chunks) fill_chunk(*c, 171717);
    EXPECT_EQ(s.mgr->restore_all(), RestoreStatus::kOk);
    for (std::size_t i = 0; i < s.chunks.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(s.chunks[i]->data(), golden[i].data(),
                               golden[i].size()))
          << "chunk " << i << " batch_rearm=" << batch_rearm;
    }
    return golden;
  };
  std::uint64_t batched_calls = 0, single_calls = 0;
  const auto batched = run(1, &batched_calls);
  const auto single = run(0, &single_calls);
  ASSERT_EQ(batched.size(), single.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(batched[i].data(), single[i].data(),
                             batched[i].size()))
        << "chunk " << i;
  }
  EXPECT_LE(batched_calls, single_calls);
}

TEST_F(ManagerTest, BatchRearmResolvesFromEnvironment) {
  ::unsetenv("NVMCP_BATCH_REARM");
  EXPECT_TRUE(resolve_batch_rearm(-1));  // unset: default on
  ::setenv("NVMCP_BATCH_REARM", "0", 1);
  EXPECT_FALSE(resolve_batch_rearm(-1));
  ::setenv("NVMCP_BATCH_REARM", "off", 1);
  EXPECT_FALSE(resolve_batch_rearm(-1));
  ::setenv("NVMCP_BATCH_REARM", "false", 1);
  EXPECT_FALSE(resolve_batch_rearm(-1));
  ::setenv("NVMCP_BATCH_REARM", "1", 1);
  EXPECT_TRUE(resolve_batch_rearm(-1));
  // Explicit configuration wins over the environment in either direction.
  ::setenv("NVMCP_BATCH_REARM", "1", 1);
  EXPECT_FALSE(resolve_batch_rearm(0));
  ::setenv("NVMCP_BATCH_REARM", "0", 1);
  EXPECT_TRUE(resolve_batch_rearm(1));
  ::unsetenv("NVMCP_BATCH_REARM");
}

TEST_F(ManagerTest, CopyThreadsResolvesFromEnvironmentWhenZero) {
  ::setenv("NVMCP_COPY_THREADS", "3", 1);
  EXPECT_EQ(resolve_copy_threads(0), 3u);
  EXPECT_EQ(resolve_copy_threads(2), 2u);  // explicit value wins
  ::setenv("NVMCP_COPY_THREADS", "not-a-number", 1);
  EXPECT_EQ(resolve_copy_threads(0), 1u);
  ::setenv("NVMCP_COPY_THREADS", "9999", 1);
  EXPECT_EQ(resolve_copy_threads(0), 64u);  // clamped
  ::unsetenv("NVMCP_COPY_THREADS");
  EXPECT_EQ(resolve_copy_threads(0), 1u);
}

// ---------------------------------------------------------------------------
// Streaming restore over the version ring: restore-to-epoch, rollback on a
// bad target, and the commit admission rule while chunks stream back in.

/// A self-contained device/allocator/manager stack with a version ring.
/// bw_scale > 0 turns the device throttle on at scaled PCM bandwidths so a
/// restore takes a controlled, nonzero wall-clock window.
struct RingStack {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<CheckpointManager> mgr;

  explicit RingStack(int ring_depth, double bw_scale = 0) {
    NvmConfig ncfg;
    ncfg.capacity = 64 * MiB;
    ncfg.throttle = bw_scale > 0;
    if (bw_scale > 0) ncfg.spec = NvmSpec::pcm().scaled(bw_scale);
    dev = std::make_unique<NvmDevice>(ncfg);
    cont = std::make_unique<vmem::Container>(*dev);
    alloc::ChunkAllocator::Options aopts;
    aopts.ring_depth = ring_depth;
    alloc = std::make_unique<alloc::ChunkAllocator>(*cont, aopts);
    CheckpointConfig ccfg;
    ccfg.local_policy = PrecopyPolicy::kNone;
    ccfg.epoch_gc_background = false;
    mgr = std::make_unique<CheckpointManager>(*alloc, ccfg);
  }
};

void fill_seeded(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
}

bool matches_seed(const alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  const auto* p = static_cast<const std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    if (std::memcmp(p + i, &v, 8) != 0) return false;
  }
  return true;
}

TEST(StreamingRestore, RestoresAnExplicitRetainedEpochByteExact) {
  RingStack s(4);
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < 3; ++i) {
    chunks.push_back(
        s.alloc->nvalloc("sr" + std::to_string(i), 256 * KiB, true));
  }
  for (std::uint64_t e = 1; e <= 4; ++e) {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      fill_seeded(*chunks[i], 100 * i + e);
    }
    s.mgr->nvchkptall();
  }
  for (auto* c : chunks) fill_seeded(*c, 999);  // scribble DRAM

  auto rep = s.mgr->restore_streaming(2);
  EXPECT_EQ(rep.status, RestoreStatus::kOkStale);
  EXPECT_EQ(rep.chunks, 3);
  EXPECT_EQ(rep.chunks_rolled_back, 0);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_TRUE(matches_seed(*chunks[i], 100 * i + 2)) << "chunk " << i;
  }

  // Epoch 0 = newest committed version; the ring detour above must not
  // have disturbed it.
  rep = s.mgr->restore_streaming();
  EXPECT_EQ(rep.status, RestoreStatus::kOk);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_TRUE(matches_seed(*chunks[i], 100 * i + 4)) << "chunk " << i;
  }
}

TEST(StreamingRestore, WalksBackWhenTheTargetEpochFailsVerification) {
  RingStack s(4);
  alloc::Chunk* a = s.alloc->nvalloc("wa", 256 * KiB, true);
  alloc::Chunk* b = s.alloc->nvalloc("wb", 256 * KiB, true);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    fill_seeded(*a, 10 + e);
    fill_seeded(*b, 20 + e);
    s.mgr->nvchkptall();
  }
  // Flip a byte inside a's newest committed payload on the device.
  const auto& rec = a->record();
  s.dev->data()[rec.slot_off[rec.committed] + 100] ^= std::byte{0x40};

  fill_seeded(*a, 999);
  fill_seeded(*b, 999);
  const auto rep = s.mgr->restore_streaming();
  EXPECT_EQ(rep.status, RestoreStatus::kOkStale);
  EXPECT_EQ(rep.chunks_rolled_back, 1);
  // a fell back to its newest older epoch that still verifies; b is intact
  // at the newest.
  EXPECT_TRUE(matches_seed(*a, 10 + 2));
  EXPECT_TRUE(matches_seed(*b, 20 + 3));
}

TEST(StreamingRestore, DepthOneReportsMismatchWithNothingToWalkBackTo) {
  RingStack s(1);
  alloc::Chunk* a = s.alloc->nvalloc("d1", 256 * KiB, true);
  fill_seeded(*a, 1);
  s.mgr->nvchkptall();
  fill_seeded(*a, 2);
  s.mgr->nvchkptall();
  const auto& rec = a->record();
  s.dev->data()[rec.slot_off[rec.committed] + 100] ^= std::byte{0x40};
  const auto rep = s.mgr->restore_streaming();
  EXPECT_EQ(rep.status, RestoreStatus::kChecksumMismatch);
  EXPECT_EQ(rep.chunks_rolled_back, 0);
}

// The admission rule: while a streaming restore is in flight, nvchkptall
// defers chunks whose payload has not arrived yet instead of committing
// garbage, and counts every deferral. The throttled device pins the
// restore window open long enough for concurrent checkpoint rounds to
// observe pending chunks deterministically.
TEST(StreamingRestore, CommitsAreDeferredWhileChunksStillStreamIn) {
  RingStack s(2, /*bw_scale=*/0.005);  // read ~40 MB/s: 2 MiB ~= 50 ms
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(
        s.alloc->nvalloc("cd" + std::to_string(i), 256 * KiB, true));
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    fill_seeded(*chunks[i], 300 + i);
  }
  s.mgr->nvchkptall();
  for (auto* c : chunks) fill_seeded(*c, 999);

  const std::uint64_t seeded_epoch = s.mgr->committed_epoch();

  CheckpointManager::StreamingRestoreReport rep;
  std::atomic<bool> done{false};
  std::thread restorer([&] {
    rep = s.mgr->restore_streaming();
    done.store(true, std::memory_order_release);
  });
  // The application keeps taking coordinated checkpoints throughout the
  // restore; rounds that meet a still-pending chunk must defer it. It
  // starts once the restore has registered its chunks: a round before
  // that would commit the seed-999 bytes as the newest epoch.
  while (!s.mgr->restoring() && !done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  while (!done.load(std::memory_order_acquire)) {
    s.mgr->nvchkptall();
  }
  restorer.join();

  EXPECT_EQ(rep.status, RestoreStatus::kOk);
  EXPECT_EQ(rep.epoch, seeded_epoch);
  EXPECT_EQ(rep.chunks, 8);
  EXPECT_GT(rep.commits_deferred, 0u);
  EXPECT_EQ(s.mgr->metrics().counter("ckpt.chunks_deferred_restoring")
                .value(),
            rep.commits_deferred);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_TRUE(matches_seed(*chunks[i], 300 + i)) << "chunk " << i;
  }

  // Once the restore drains, every chunk is admitted again: a fresh write
  // + checkpoint + restore round-trips through the normal path.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    fill_seeded(*chunks[i], 400 + i);
  }
  s.mgr->nvchkptall();
  EXPECT_EQ(s.mgr->restore_all(), RestoreStatus::kOk);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_TRUE(matches_seed(*chunks[i], 400 + i)) << "chunk " << i;
  }
}

}  // namespace
}  // namespace nvmcp::core
