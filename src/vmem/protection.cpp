#include "vmem/protection.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/checksum.hpp"
#include "common/error.hpp"

namespace nvmcp::vmem {
namespace {

struct sigaction g_old_action;

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

bool uses_mmu(TrackMode mode) {
  return mode == TrackMode::kMprotect || mode == TrackMode::kMprotectPage;
}

/// Scoped in-flight marker for lock-free snapshot readers. The seq_cst
/// increment-before-load pairs with the seq_cst snapshot publish: if the
/// reclaimer reads the counter as zero after publishing, any reader it did
/// not see increments later in the SC total order and therefore loads the
/// freshly published snapshot, never a retired one. Signal safe (atomics
/// only).
struct ReaderGuard {
  explicit ReaderGuard(std::atomic<std::uint64_t>& counter)
      : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_seq_cst);
  }
  ~ReaderGuard() { counter_.fetch_sub(1, std::memory_order_release); }
  std::atomic<std::uint64_t>& counter_;
};

}  // namespace

void WriteTracker::append(std::uint64_t off, std::uint64_t len) {
  if (len == 0) return;
  // Bumped BEFORE the record and the dirty flag, mirroring the fault
  // handler's counter-then-flag order: the pre-copy dance reads faults +
  // writes_logged around its dirty-flag clear to detect a racing writer
  // (see ChunkAllocator::precopy_chunk).
  writes_logged.fetch_add(1);
  const std::uint64_t discarded = log.record(off, len);
  if (discarded == 0) {
    log_bytes.fetch_add(len, std::memory_order_relaxed);
  } else {
    log_drops.fetch_add(discarded, std::memory_order_relaxed);
  }
  // Sequentially consistent, like the count bump above: a load that read
  // a true the pre-copy clear then overwrote would otherwise skip the mark
  // while the clear's recheck missed the bump (ChunkAllocator::
  // precopy_chunk).
  if (!dirty_local.load()) {
    mark_dirty();
  } else {
    mods_in_interval.fetch_add(1, std::memory_order_acq_rel);
  }
}

const char* to_string(TrackMode mode) {
  switch (mode) {
    case TrackMode::kMprotect:
      return "mprotect";
    case TrackMode::kMprotectPage:
      return "mprotect_page";
    case TrackMode::kSoftware:
      return "software";
    case TrackMode::kWriteLog:
      return "writelog";
  }
  return "unknown";
}

// Out-of-line trampoline so the raw handler signature stays C-compatible.
struct SigsegvTrampoline {
  static void handler(int sig, siginfo_t* info, void* ucontext) {
    if (ProtectionManager::instance().handle_fault(info->si_addr)) return;
    // Not ours: chain to the previous handler or re-raise with defaults.
    if (g_old_action.sa_flags & SA_SIGINFO) {
      if (g_old_action.sa_sigaction) {
        g_old_action.sa_sigaction(sig, info, ucontext);
        return;
      }
    } else if (g_old_action.sa_handler != SIG_DFL &&
               g_old_action.sa_handler != SIG_IGN) {
      g_old_action.sa_handler(sig);
      return;
    }
    signal(SIGSEGV, SIG_DFL);
    raise(SIGSEGV);
  }
};

ProtectionManager& ProtectionManager::instance() {
  static ProtectionManager mgr;
  return mgr;
}

std::size_t ProtectionManager::host_page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

void ProtectionManager::install_handler_locked() {
  if (handler_installed_) return;
  struct sigaction sa{};
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sa.sa_sigaction = &SigsegvTrampoline::handler;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGSEGV, &sa, &g_old_action) != 0) {
    throw NvmcpError("ProtectionManager: sigaction failed");
  }
  handler_installed_ = true;
}

void ProtectionManager::publish_locked() {
  auto snap = std::make_unique<Snapshot>();
  snap->reserve(ranges_.size());
  for (const auto& r : ranges_) snap->push_back(r.get());
  std::sort(snap->begin(), snap->end(), [](const Range* a, const Range* b) {
    return a->start < b->start;
  });
  Snapshot* raw = snap.get();
  retired_.push_back(std::move(snap));
  // seq_cst: pairs with the readers' increment-then-load (ReaderGuard) so
  // try_reclaim_locked's quiescence check is sound.
  snapshot_.store(raw, std::memory_order_seq_cst);
  try_reclaim_locked();
}

void ProtectionManager::try_reclaim_locked() {
  if (retired_.size() <= 1 && retired_ranges_.empty()) return;
  if (readers_.load(std::memory_order_seq_cst) != 0) return;
  // Quiescent: no reader is in flight, and any reader arriving after the
  // counter read increments first (seq_cst) and then observes the current
  // snapshot -- so nothing can reference a retired snapshot or a Range
  // that only retired snapshots point to.
  Snapshot* cur = snapshot_.load(std::memory_order_relaxed);
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [cur](const std::unique_ptr<Snapshot>& s) {
                                  return s.get() != cur;
                                }),
                 retired_.end());
  retired_ranges_.clear();
}

ProtectionManager::Range* ProtectionManager::find_locked(int handle) const {
  for (const auto& r : ranges_) {
    if (r->handle == handle) return r.get();
  }
  throw NvmcpError("ProtectionManager: unknown handle");
}

int ProtectionManager::register_range(void* addr, std::size_t len,
                                      WriteTracker* tracker, TrackMode mode) {
  if (!addr || len == 0 || !tracker) {
    throw NvmcpError("ProtectionManager: bad registration");
  }
  if (uses_mmu(mode)) {
    const std::size_t page = host_page_size();
    if (reinterpret_cast<std::uintptr_t>(addr) % page != 0 ||
        len % page != 0) {
      throw NvmcpError(
          "ProtectionManager: mprotect range must be page aligned");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (uses_mmu(mode)) install_handler_locked();
  auto range = std::make_unique<Range>();
  range->start = static_cast<std::byte*>(addr);
  range->len = len;
  range->tracker = tracker;
  range->mode = mode;
  range->handle = next_handle_++;
  if (mode == TrackMode::kMprotectPage) {
    range->pages = std::make_unique<AtomicBitmap>(len / host_page_size());
  }
  const int handle = range->handle;
  ranges_.push_back(std::move(range));
  publish_locked();
  return handle;
}

void ProtectionManager::unregister_range(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = ranges_.begin(); it != ranges_.end(); ++it) {
    if ((*it)->handle != handle) continue;
    if (uses_mmu((*it)->mode) &&
        (*it)->armed.load(std::memory_order_acquire)) {
      ::mprotect((*it)->start, (*it)->len, PROT_READ | PROT_WRITE);
      mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    // In-flight lock-free readers may still dereference this Range through
    // an old snapshot: park it in the graveyard until quiescence instead
    // of freeing it here.
    retired_ranges_.push_back(std::move(*it));
    ranges_.erase(it);
    publish_locked();
    return;
  }
  throw NvmcpError("ProtectionManager: unknown handle");
}

void ProtectionManager::protect(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  Range* r = find_locked(handle);
  if (uses_mmu(r->mode)) {
    if (::mprotect(r->start, r->len, PROT_READ) != 0) {
      throw NvmcpError("ProtectionManager: mprotect(PROT_READ) failed");
    }
    mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  r->armed.store(true, std::memory_order_release);
}

void ProtectionManager::unprotect(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  Range* r = find_locked(handle);
  if (uses_mmu(r->mode)) {
    ::mprotect(r->start, r->len, PROT_READ | PROT_WRITE);
    mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  r->armed.store(false, std::memory_order_release);
}

std::size_t ProtectionManager::protect_ranges_locked(
    std::vector<Range*>& targets) {
  // Arm fault-free modes immediately; gather mprotect-mode ranges so
  // address-adjacent ones share one syscall.
  std::vector<Range*> mmu;
  mmu.reserve(targets.size());
  for (Range* r : targets) {
    if (uses_mmu(r->mode)) {
      mmu.push_back(r);
    } else {
      r->armed.store(true, std::memory_order_release);
    }
  }
  if (mmu.empty()) return 0;
  std::sort(mmu.begin(), mmu.end(), [](const Range* a, const Range* b) {
    return a->start < b->start;
  });
  std::size_t calls = 0;
  std::size_t i = 0;
  while (i < mmu.size()) {
    std::byte* run_start = mmu[i]->start;
    std::byte* run_end = run_start + mmu[i]->len;
    std::size_t j = i + 1;
    while (j < mmu.size() && mmu[j]->start == run_end) {
      run_end = mmu[j]->start + mmu[j]->len;
      ++j;
    }
    if (::mprotect(run_start, static_cast<std::size_t>(run_end - run_start),
                   PROT_READ) != 0) {
      throw NvmcpError("ProtectionManager: batched mprotect failed");
    }
    ++calls;
    for (; i < j; ++i) mmu[i]->armed.store(true, std::memory_order_release);
  }
  mprotect_calls_.fetch_add(calls, std::memory_order_relaxed);
  return calls;
}

std::size_t ProtectionManager::protect_batch(
    const std::vector<int>& handles) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Range*> targets;
  targets.reserve(handles.size());
  for (int h : handles) targets.push_back(find_locked(h));
  return protect_ranges_locked(targets);
}

std::size_t ProtectionManager::protect_all() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Range*> targets;
  targets.reserve(ranges_.size());
  for (const auto& r : ranges_) targets.push_back(r.get());
  return protect_ranges_locked(targets);
}

WriteLog::Collected ProtectionManager::collect_dirty_ranges(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  Range* r = find_locked(handle);
  WriteLog::Collected out;
  if (!r->pages) return out;
  // Clear each bit as it is collected (atomically per bit): a page dirtied
  // concurrently either makes this batch or stays set for the next one --
  // never lost. Adjacent pages coalesce into one run.
  const std::size_t page = host_page_size();
  r->pages->for_each_set(0, r->pages->size(), [&](std::size_t i) {
    r->pages->clear(i);
    if (!out.ranges.empty() && out.ranges.back().end() == i * page) {
      out.ranges.back().len += page;
    } else {
      out.ranges.push_back({i * page, page});
    }
  });
  return out;
}

bool ProtectionManager::is_protected(int handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : ranges_) {
    if (r->handle == handle) {
      return r->armed.load(std::memory_order_acquire);
    }
  }
  throw NvmcpError("ProtectionManager: unknown handle");
}

void ProtectionManager::notify_write(int handle) {
  ReaderGuard guard(readers_);
  Snapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  if (!snap) return;
  for (Range* r : *snap) {
    if (r->handle != handle) continue;
    // Untracked write under a write log: logged coverage is no longer
    // complete, so the next collection must fall back to a whole-chunk
    // copy.
    if (r->mode == TrackMode::kWriteLog) r->tracker->log.raise_whole();
    bool expected = true;
    if (r->armed.compare_exchange_strong(expected, false,
                                         std::memory_order_acq_rel)) {
      if (uses_mmu(r->mode)) {
        ::mprotect(r->start, r->len, PROT_READ | PROT_WRITE);
        mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
      }
      if (r->pages) r->pages->set_range(0, r->pages->size());
      // Counter after the disarm and before the flags, in every mode --
      // the fault handler's contract: pre-copy's clear-and-recheck reads
      // it to catch a notify that disarmed the range behind its arm.
      r->tracker->writes_logged.fetch_add(1);
      r->tracker->mark_dirty();
    }
    return;
  }
}

std::size_t ProtectionManager::retired_snapshot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

std::size_t ProtectionManager::retired_range_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_ranges_.size();
}

void ProtectionManager::arm_lazy_restore(int handle, const std::byte* src,
                                         std::size_t len,
                                         std::uint64_t crc) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : ranges_) {
    if (r->handle != handle) continue;
    if (!uses_mmu(r->mode)) {
      throw NvmcpError("arm_lazy_restore: needs an mprotect registration");
    }
    if (len > r->len) {
      throw NvmcpError("arm_lazy_restore: source larger than the range");
    }
    r->lazy_src = src;
    r->lazy_len = len;
    r->lazy_crc = crc;
    mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
    if (::mprotect(r->start, r->len, PROT_NONE) != 0) {
      throw NvmcpError("arm_lazy_restore: mprotect(PROT_NONE) failed");
    }
    r->lazy_state.store(static_cast<int>(LazyState::kArmed),
                        std::memory_order_release);
    return;
  }
  throw NvmcpError("ProtectionManager: unknown handle");
}

ProtectionManager::LazyState ProtectionManager::lazy_state(
    int handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : ranges_) {
    if (r->handle == handle) {
      return static_cast<LazyState>(
          r->lazy_state.load(std::memory_order_acquire));
    }
  }
  throw NvmcpError("ProtectionManager: unknown handle");
}

void ProtectionManager::set_extra_fault_latency(double seconds) {
  extra_fault_ns_.store(static_cast<std::uint64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
}

bool ProtectionManager::handle_fault(void* addr) {
  const std::uint64_t t0 = monotonic_ns();
  ReaderGuard guard(readers_);
  Snapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  if (!snap) return false;
  auto* fault = static_cast<std::byte*>(addr);
  // Binary search: first range with start > fault, step back one.
  std::size_t lo = 0, hi = snap->size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if ((*snap)[mid]->start <= fault) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  Range* r = (*snap)[lo - 1];
  if (fault < r->start || fault >= r->start + r->len) return false;
  if (!uses_mmu(r->mode)) return false;  // software / writelog never fault

  // Lazy restore: the first toucher copies the committed payload in; any
  // thread racing it spins until the copy lands, then retries its access.
  int lazy = r->lazy_state.load(std::memory_order_acquire);
  if (lazy == static_cast<int>(LazyState::kArmed) ||
      lazy == static_cast<int>(LazyState::kCopying)) {
    int expected = static_cast<int>(LazyState::kArmed);
    if (r->lazy_state.compare_exchange_strong(
            expected, static_cast<int>(LazyState::kCopying),
            std::memory_order_acq_rel)) {
      // Fill a scratch mapping, then move it over the range in one step:
      // opening the range before the copy lands would let a thread that
      // touches another page read stale bytes without faulting.
      mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
      void* fresh = ::mmap(nullptr, r->len, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (fresh != MAP_FAILED) {
        std::memcpy(fresh, r->lazy_src, r->lazy_len);
        if (::mremap(fresh, r->len, r->len, MREMAP_MAYMOVE | MREMAP_FIXED,
                     r->start) == MAP_FAILED) {
          ::munmap(fresh, r->len);
          fresh = MAP_FAILED;
        }
      }
      if (fresh == MAP_FAILED) {
        r->lazy_state.store(static_cast<int>(LazyState::kFailed),
                            std::memory_order_release);
        return false;
      }
      const bool ok = crc64(r->start, r->lazy_len) == r->lazy_crc;
      r->armed.store(false, std::memory_order_release);
      r->tracker->faults.fetch_add(1);
      r->tracker->mark_dirty();  // restored data needs re-persisting
      total_faults_.fetch_add(1, std::memory_order_relaxed);
      r->lazy_state.store(static_cast<int>(ok ? LazyState::kDone
                                              : LazyState::kFailed),
                          std::memory_order_release);
    } else {
      while (r->lazy_state.load(std::memory_order_acquire) <=
             static_cast<int>(LazyState::kCopying)) {
        // spin: the copier is filling the range
      }
    }
    const std::uint64_t lazy_dt = monotonic_ns() - t0;
    fault_ns_.fetch_add(lazy_dt, std::memory_order_relaxed);
    r->tracker->fault_ns.fetch_add(lazy_dt, std::memory_order_relaxed);
    return true;
  }

  if (r->mode == TrackMode::kMprotectPage) {
    // Page-level tracking: unprotect and record only the faulting page --
    // every page pays its own 6-12 us fault (the cost the paper's
    // chunk-level design avoids).
    const std::size_t page = host_page_size();
    auto* page_start = reinterpret_cast<std::byte*>(
        reinterpret_cast<std::uintptr_t>(fault) & ~(page - 1));
    mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
    if (::mprotect(page_start, page, PROT_READ | PROT_WRITE) != 0) {
      return false;
    }
    // Fault count is bumped BEFORE the dirty flag so the pre-copy path
    // can detect a fault racing its clear of dirty_local (see
    // ChunkAllocator::precopy_chunk).
    r->tracker->faults.fetch_add(1);
    r->pages->set(static_cast<std::size_t>(page_start - r->start) / page);
    r->tracker->mark_dirty();
  } else {
    // Chunk-level fault amortization: unprotect the WHOLE chunk and mark
    // the whole chunk dirty, so later stores to any of its pages are free.
    mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
    if (::mprotect(r->start, r->len, PROT_READ | PROT_WRITE) != 0) {
      return false;
    }
    r->armed.store(false, std::memory_order_release);
    r->tracker->faults.fetch_add(1);
    r->tracker->mark_dirty();
  }
  total_faults_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t extra =
      extra_fault_ns_.load(std::memory_order_relaxed);
  if (extra) {
    const std::uint64_t deadline = monotonic_ns() + extra;
    while (monotonic_ns() < deadline) {
      // busy wait: sleeping in a SIGSEGV handler that must return to the
      // faulting store should stay minimal and predictable
    }
  }
  const std::uint64_t dt = monotonic_ns() - t0;
  fault_ns_.fetch_add(dt, std::memory_order_relaxed);
  r->tracker->fault_ns.fetch_add(dt, std::memory_order_relaxed);
  return true;
}

}  // namespace nvmcp::vmem
