// Tests for chunk-level write protection: real mprotect+SIGSEGV dirty
// tracking (one fault marks the whole chunk), software tracking, write-log
// tracking (per-chunk dirty logs), batched re-protection, snapshot
// reclamation, lazy-restore arming, and fault accounting.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "vmem/protection.hpp"
#include "vmem/write_log.hpp"

namespace nvmcp::vmem {
namespace {

class MappedBuffer {
 public:
  explicit MappedBuffer(std::size_t pages) {
    len_ = pages * ProtectionManager::host_page_size();
    ptr_ = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(ptr_, MAP_FAILED);
  }
  ~MappedBuffer() { ::munmap(ptr_, len_); }
  std::byte* data() { return static_cast<std::byte*>(ptr_); }
  std::size_t size() const { return len_; }

 private:
  void* ptr_;
  std::size_t len_;
};

TEST(Protection, FaultMarksWholeChunkDirtyAndUnprotects) {
  MappedBuffer buf(4);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);

  tracker.dirty_local.store(false);
  mgr.protect(h);
  EXPECT_TRUE(mgr.is_protected(h));

  const std::uint64_t faults_before = mgr.total_faults();
  buf.data()[3 * ProtectionManager::host_page_size() + 17] = std::byte{42};

  EXPECT_TRUE(tracker.dirty_local.load());
  EXPECT_FALSE(mgr.is_protected(h));
  EXPECT_EQ(mgr.total_faults(), faults_before + 1);
  EXPECT_EQ(tracker.faults.load(), 1u);

  // Second store to a *different* page: chunk already unprotected, no
  // further fault (the chunk-level amortization the paper relies on).
  buf.data()[0] = std::byte{7};
  EXPECT_EQ(mgr.total_faults(), faults_before + 1);

  mgr.unregister_range(h);
}

TEST(Protection, ModificationCounterAccumulatesPerProtectCycle) {
  MappedBuffer buf(1);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);
  for (int i = 0; i < 3; ++i) {
    mgr.protect(h);
    buf.data()[static_cast<std::size_t>(i)] = std::byte{1};
  }
  EXPECT_EQ(tracker.mods_in_interval.load(), 3u);
  EXPECT_EQ(tracker.faults.load(), 3u);
  mgr.unregister_range(h);
}

TEST(Protection, UnprotectedWritesDoNotFault) {
  MappedBuffer buf(1);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);
  const std::uint64_t before = mgr.total_faults();
  buf.data()[0] = std::byte{9};  // never protected
  EXPECT_EQ(mgr.total_faults(), before);
  mgr.unregister_range(h);
}

TEST(Protection, SoftwareModeTracksViaNotify) {
  std::vector<std::byte> buf(1000);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kSoftware);
  tracker.dirty_local.store(false);
  mgr.protect(h);
  EXPECT_TRUE(mgr.is_protected(h));
  mgr.notify_write(h);
  EXPECT_TRUE(tracker.dirty_local.load());
  EXPECT_FALSE(mgr.is_protected(h));
  // Notify when unarmed: no additional modification recorded.
  const auto mods = tracker.mods_in_interval.load();
  mgr.notify_write(h);
  EXPECT_EQ(tracker.mods_in_interval.load(), mods);
  mgr.unregister_range(h);
}

TEST(Protection, MprotectModeRequiresPageAlignment) {
  std::vector<std::byte> buf(100);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  EXPECT_THROW(mgr.register_range(buf.data() + 1, 64, &tracker,
                                  TrackMode::kMprotect),
               NvmcpError);
}

TEST(Protection, BadRegistrationRejected) {
  auto& mgr = ProtectionManager::instance();
  WriteTracker tracker;
  EXPECT_THROW(mgr.register_range(nullptr, 4096, &tracker,
                                  TrackMode::kSoftware),
               NvmcpError);
  int x = 0;
  EXPECT_THROW(
      mgr.register_range(&x, 0, &tracker, TrackMode::kSoftware),
      NvmcpError);
}

TEST(Protection, UnknownHandleThrows) {
  auto& mgr = ProtectionManager::instance();
  EXPECT_THROW(mgr.protect(999999), NvmcpError);
  EXPECT_THROW(mgr.unprotect(999999), NvmcpError);
  EXPECT_THROW(mgr.unregister_range(999999), NvmcpError);
}

TEST(Protection, MultipleRangesResolveIndependently) {
  MappedBuffer a(2), b(2);
  WriteTracker ta, tb;
  auto& mgr = ProtectionManager::instance();
  const int ha =
      mgr.register_range(a.data(), a.size(), &ta, TrackMode::kMprotect);
  const int hb =
      mgr.register_range(b.data(), b.size(), &tb, TrackMode::kMprotect);
  ta.dirty_local.store(false);
  tb.dirty_local.store(false);
  mgr.protect(ha);
  mgr.protect(hb);
  b.data()[5] = std::byte{1};
  EXPECT_FALSE(ta.dirty_local.load());
  EXPECT_TRUE(tb.dirty_local.load());
  EXPECT_TRUE(mgr.is_protected(ha));
  mgr.unprotect(ha);
  mgr.unregister_range(ha);
  mgr.unregister_range(hb);
}

TEST(Protection, ProtectedReadsStillWork) {
  MappedBuffer buf(1);
  buf.data()[10] = std::byte{123};
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);
  mgr.protect(h);
  EXPECT_EQ(buf.data()[10], std::byte{123});  // read under PROT_READ
  mgr.unprotect(h);
  mgr.unregister_range(h);
}

TEST(Protection, FaultTimeIsAccounted) {
  MappedBuffer buf(1);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);
  const double before = mgr.total_fault_seconds();
  mgr.protect(h);
  buf.data()[0] = std::byte{1};
  EXPECT_GT(mgr.total_fault_seconds(), before);
  mgr.unregister_range(h);
}

TEST(Protection, BatchProtectCoalescesAdjacentRanges) {
  // Four 2-page ranges carved out of ONE mapping: address-adjacent, so the
  // batch path must coalesce them into a single mprotect run.
  MappedBuffer buf(8);
  const std::size_t page = ProtectionManager::host_page_size();
  auto& mgr = ProtectionManager::instance();
  WriteTracker trackers[4];
  std::vector<int> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(mgr.register_range(buf.data() + i * 2 * page, 2 * page,
                                         &trackers[i], TrackMode::kMprotect));
  }

  const std::uint64_t calls0 = mgr.total_mprotect_calls();
  const std::size_t batch_calls = mgr.protect_batch(handles);
  EXPECT_EQ(batch_calls, 1u);
  EXPECT_EQ(mgr.total_mprotect_calls(), calls0 + 1);
  for (int h : handles) EXPECT_TRUE(mgr.is_protected(h));

  // Per-range arming of the same set costs one syscall per range.
  const std::uint64_t calls1 = mgr.total_mprotect_calls();
  for (int h : handles) mgr.protect(h);
  EXPECT_EQ(mgr.total_mprotect_calls(), calls1 + handles.size());

  // A fault disarms exactly the faulted range; its neighbours stay armed.
  trackers[2].dirty_local.store(false);
  buf.data()[2 * 2 * page + 5] = std::byte{1};
  EXPECT_TRUE(trackers[2].dirty_local.load());
  EXPECT_FALSE(mgr.is_protected(handles[2]));
  EXPECT_TRUE(mgr.is_protected(handles[1]));
  EXPECT_TRUE(mgr.is_protected(handles[3]));

  for (int h : handles) mgr.unregister_range(h);
}

TEST(Protection, WriteLogAppendCollectAndCounters) {
  std::vector<std::byte> buf(4096);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kWriteLog);

  tracker.dirty_local.store(false);
  mgr.protect(h);
  buf[10] = std::byte{1};    // store first...
  tracker.append(10, 20);    // ...then log (store-then-log contract)
  buf[100] = std::byte{2};
  tracker.append(100, 8);

  EXPECT_TRUE(tracker.dirty_local.load());  // append re-marks armed chunks
  EXPECT_EQ(tracker.writes_logged.load(), 2u);
  EXPECT_EQ(tracker.log_bytes.load(), 28u);

  auto got = tracker.log.collect();
  EXPECT_FALSE(got.whole);
  ASSERT_EQ(got.ranges.size(), 2u);
  merge_dirty_ranges(got.ranges, 0);
  EXPECT_EQ(got.ranges[0].off, 10u);
  EXPECT_EQ(got.ranges[1].off, 100u);

  // Collection is destructive: a second collect starts empty.
  EXPECT_TRUE(tracker.log.collect().ranges.empty());

  // notify_write on a write-log registration = untracked write: the next
  // collection must treat the whole chunk as dirty.
  mgr.protect(h);
  mgr.notify_write(h);
  EXPECT_TRUE(tracker.log.collect().whole);

  mgr.unregister_range(h);
}

TEST(Protection, MergeDirtyRangesSortsAndCoalesces) {
  std::vector<DirtyRange> r = {{300, 50}, {0, 64}, {70, 10}, {340, 20}};
  merge_dirty_ranges(r, 8);  // gap 6 between [0,64) and [70,80) merges
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].off, 0u);
  EXPECT_EQ(r[0].len, 80u);
  EXPECT_EQ(r[1].off, 300u);
  EXPECT_EQ(r[1].len, 60u);  // overlapping [300,350)+[340,360) coalesced

  std::vector<DirtyRange> far = {{0, 8}, {1000, 8}};
  merge_dirty_ranges(far, 512);
  EXPECT_EQ(far.size(), 2u);  // gap 992 > 512: kept apart
}

TEST(Protection, WriteLogRingOverflowFallsBackToWholeDirty) {
  std::vector<std::byte> buf(4096);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kWriteLog);

  // Appending past the log's bound without an intervening collect must
  // overflow into whole-chunk dirtiness, never lose the write: the full
  // list plus the overflowing append are counted drops, and the appends
  // after it are logged again.
  const std::uint64_t appends = WriteLog::kMaxRanges + 10;
  for (std::uint64_t i = 0; i < appends; ++i) {
    buf[i % buf.size()] = std::byte{1};
    tracker.append(i % buf.size(), 1);
  }

  EXPECT_EQ(tracker.log_drops.load(), WriteLog::kMaxRanges + 1);
  EXPECT_EQ(tracker.writes_logged.load(), appends);  // drops still counted
  const WriteLog::Collected got = tracker.log.collect();
  EXPECT_TRUE(got.whole);
  EXPECT_EQ(got.ranges.size() + tracker.log_drops.load(), appends);
  EXPECT_FALSE(tracker.log.collect().whole);  // the collect took the flag
  mgr.unregister_range(h);
}

// Concurrent writers append (store-then-log) to one chunk's log while the
// main thread re-arms via protect_all and collects the log, mimicking the
// checkpoint loop. Record conservation is absolute: every append ends up
// either as a collected range or as a counted drop -- nothing vanishes,
// TSan-clean.
TEST(Protection, ConcurrentWritersVsBatchRearmConserveRecords) {
  std::vector<std::byte> buf(1 << 16);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kWriteLog);

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  // Each writer wraps around its own quarter of the buffer, so no two
  // writers ever store to the same byte.
  const std::uint64_t stripe = buf.size() / kWriters;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t off = w * stripe + (i * 8) % stripe;
        buf[off] = std::byte{static_cast<unsigned char>(i)};
        tracker.append(off, 8);
      }
    });
  }

  go.store(true, std::memory_order_release);
  std::uint64_t collected = 0;
  for (int round = 0; round < 200; ++round) {
    mgr.protect_all();  // batched re-arm racing the appends
    collected += tracker.log.collect().ranges.size();
  }
  for (auto& t : writers) t.join();
  collected += tracker.log.collect().ranges.size();

  EXPECT_EQ(collected + tracker.log_drops.load(), kWriters * kPerWriter);
  EXPECT_EQ(tracker.writes_logged.load(), kWriters * kPerWriter);
  mgr.unregister_range(h);
}

// Regression for the retired-snapshot leak: every publish retires the old
// snapshot table, and quiescent reclamation (no readers in flight) must
// free them; before the fix a register/unregister churn grew retired_
// without bound.
TEST(Protection, RegistrationChurnReclaimsRetiredSnapshots) {
  auto& mgr = ProtectionManager::instance();
  std::vector<std::byte> buf(4096);
  std::size_t max_snapshots = 0;
  std::size_t max_ranges = 0;
  for (int i = 0; i < 600; ++i) {
    WriteTracker tracker;
    const TrackMode mode =
        (i % 2) ? TrackMode::kWriteLog : TrackMode::kSoftware;
    const int h = mgr.register_range(buf.data(), buf.size(), &tracker, mode);
    mgr.unregister_range(h);
    max_snapshots = std::max(max_snapshots, mgr.retired_snapshot_count());
    max_ranges = std::max(max_ranges, mgr.retired_range_count());
  }
  // With no concurrent readers every publish reclaims: the live snapshot
  // plus at most the one retired during the current call.
  EXPECT_LE(max_snapshots, 2u);
  EXPECT_LE(max_ranges, 1u);
  EXPECT_LE(mgr.retired_snapshot_count(), 1u);
  EXPECT_EQ(mgr.retired_range_count(), 0u);
}

// A lazy restore copies inside the fault handler, so only a registration
// that faults can carry one: on any other the PROT_NONE mapping would
// never be repaired, and the first touch would kill the process.
TEST(Protection, LazyRestoreRefusesRangesThatNeverFault) {
  auto& mgr = ProtectionManager::instance();
  const std::vector<std::byte> src(ProtectionManager::host_page_size(),
                                   std::byte{7});
  for (const TrackMode mode : {TrackMode::kSoftware, TrackMode::kWriteLog}) {
    MappedBuffer buf(1);
    WriteTracker tracker;
    const int h = mgr.register_range(buf.data(), buf.size(), &tracker, mode);
    EXPECT_THROW(mgr.arm_lazy_restore(h, src.data(), src.size(), 0),
                 NvmcpError)
        << to_string(mode);
    EXPECT_EQ(mgr.lazy_state(h), ProtectionManager::LazyState::kIdle);
    buf.data()[0] = std::byte{1};  // still mapped read-write
    EXPECT_EQ(buf.data()[0], std::byte{1});
    mgr.unregister_range(h);
  }
}

TEST(Protection, PerTrackerFaultTimeIsAccounted) {
  MappedBuffer buf(1);
  WriteTracker tracker;
  auto& mgr = ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   TrackMode::kMprotect);
  mgr.protect(h);
  buf.data()[0] = std::byte{1};
  EXPECT_EQ(tracker.faults.load(), 1u);
  EXPECT_GT(tracker.fault_ns.load(), 0u);
  mgr.unregister_range(h);
}

}  // namespace
}  // namespace nvmcp::vmem
