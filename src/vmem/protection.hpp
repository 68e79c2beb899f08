// Chunk-level write protection and dirty tracking.
//
// The paper amortizes page-protection cost over whole chunks: after a chunk
// is pre-copied to NVM, all of its pages are write-protected; the first
// subsequent store triggers one protection fault, which marks the *entire
// chunk* dirty and unprotects all of its pages ("when a page belonging to a
// chunk gets modified, the entire chunk is marked dirty ... and pre-copied
// again"). This gives one fault per chunk per modification interval instead
// of one per page (6-12us each, ~3s/GB if taken per page).
//
// Tracking modes, selectable per registration (and via NVMCP_TRACK_MODE):
//  * kMprotect  - real mprotect(PROT_READ) + SIGSEGV handler. Application
//                 stores need no instrumentation.
//  * kSoftware  - the application (or workload driver / simulator) calls
//                 notify_write(). Used where signals are unavailable or the
//                 policy logic is tested in isolation.
//  * kWriteLog  - per-thread append-only write logs (see write_log.hpp):
//                 writers call log_write(off, len) after each store; the
//                 copier drains byte ranges without taking any fault.
//
// The SIGSEGV handler is async-signal-safe: it looks up the fault address
// in an immutable snapshot table (atomic pointer swap on registration
// change), calls only mprotect/clock_gettime, and touches only atomics.
// Retired snapshots (and unregistered ranges) are reclaimed once no
// handler or snapshot reader is in flight, so registration churn costs
// bounded memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nvm/bitmap.hpp"
#include "vmem/write_log.hpp"

namespace nvmcp::vmem {

/// Per-chunk flags flipped by the fault handler. Owned by the chunk
/// (alloc layer); must outlive the registration.
struct WriteTracker {
  std::atomic<bool> dirty_local{false};
  std::atomic<bool> dirty_remote{false};
  /// Modifications observed this checkpoint interval (prediction input).
  std::atomic<std::uint32_t> mods_in_interval{0};
  /// Lifetime protection-fault count for this chunk.
  std::atomic<std::uint64_t> faults{0};
  /// Lifetime nanoseconds spent in this chunk's protection faults.
  std::atomic<std::uint64_t> fault_ns{0};
  /// Lifetime logged writes (kWriteLog appends) plus notify_write calls
  /// that disarmed the range (every mode). Bumped before the dirty flags,
  /// so write_events() plays the fault counter's role in the pre-copy
  /// clear-and-recheck dance.
  std::atomic<std::uint64_t> writes_logged{0};
  /// kWriteLog: lifetime logged bytes / dropped (overflowed) appends.
  std::atomic<std::uint64_t> log_bytes{0};
  std::atomic<std::uint64_t> log_drops{0};

  /// Faults plus writes_logged: moves whenever a store is recorded.
  std::uint64_t write_events() const {
    return faults.load(std::memory_order_acquire) +
           writes_logged.load(std::memory_order_acquire);
  }

  void mark_dirty() {
    dirty_local.store(true, std::memory_order_release);
    dirty_remote.store(true, std::memory_order_release);
    mods_in_interval.fetch_add(1, std::memory_order_acq_rel);
  }
};

/// kMprotect      - chunk-level: one fault unprotects and dirties the whole
///                  chunk (the paper's design).
/// kMprotectPage  - page-level: each faulting page is unprotected and
///                  marked individually. This is the approach the paper
///                  argues against ("handling a page protection fault can
///                  take 6-12 usec, and 3 sec for 1 GB of data") -- kept so
///                  the ablation bench can reproduce that comparison.
/// kSoftware      - explicit notify_write() from the application/driver.
/// kWriteLog      - per-thread append-only dirty logs: the application
///                  (or chunk hook) calls log_write(off, len) after each
///                  store; no mprotect, no fault, and the copier gets
///                  sub-page byte ranges instead of whole pages.
enum class TrackMode { kMprotect, kMprotectPage, kSoftware, kWriteLog };

const char* to_string(TrackMode mode);

/// Resolve a tracking mode from the NVMCP_TRACK_MODE environment variable
/// ("mprotect", "mprotect_page"/"page", "software", "writelog"/
/// "write_log"/"log"); unset or unrecognized returns `fallback`.
TrackMode resolve_track_mode(TrackMode fallback);

class ProtectionManager {
 public:
  static ProtectionManager& instance();

  ProtectionManager(const ProtectionManager&) = delete;
  ProtectionManager& operator=(const ProtectionManager&) = delete;

  /// Register a chunk range. For kMprotect the range must be host-page
  /// aligned in both address and length (the chunk allocator guarantees
  /// this by mmap'ing DRAM chunks). The tracker must outlive the
  /// registration. Returns a handle.
  int register_range(void* addr, std::size_t len, WriteTracker* tracker,
                     TrackMode mode);

  /// Remove a registration. The caller must ensure no concurrent faulting
  /// writes to the range are in flight.
  void unregister_range(int handle);

  /// Arm write tracking (after a pre-copy): protects pages in kMprotect
  /// mode, arms the software flag otherwise.
  void protect(int handle);

  /// Disarm and make the range writable again.
  void unprotect(int handle);

  bool is_protected(int handle) const;

  /// Software-mode write notification; also usable in mprotect mode to
  /// avoid a fault when the writer knows it is about to dirty the chunk.
  void notify_write(int handle);

  /// Batched re-arm: protect every range in `handles`, coalescing
  /// address-adjacent mprotect-mode ranges into contiguous runs so a
  /// 256-chunk round costs O(runs) syscalls instead of O(chunks).
  /// Returns the number of mprotect calls issued.
  std::size_t protect_batch(const std::vector<int>& handles);

  /// protect_batch over every registered range.
  std::size_t protect_all();

  /// kWriteLog: the sink writers append to (stable for the registration's
  /// lifetime, suitable for caching in the chunk). nullptr in other modes.
  DirtyLogSink* log_sink(int handle);

  /// kWriteLog: drain the per-thread logs and hand back this range's
  /// accumulated dirty byte ranges (+ whole-chunk overflow flag).
  WriteLogRegistry::Collected collect_dirty_ranges(int handle);

  /// Page-level mode: drain the set of pages (indices within the range)
  /// dirtied since they were last collected. Empty for other modes.
  std::vector<std::size_t> collect_dirty_pages(int handle);

  // --- lazy restore ------------------------------------------------------
  /// Outcome of a lazy restore armed on a range.
  enum class LazyState : int {
    kIdle = 0,     // never armed (or already consumed and reset)
    kArmed = 1,    // PROT_NONE set; first access will copy
    kCopying = 2,  // a fault is copying right now
    kDone = 3,     // copied and checksum-verified
    kFailed = 4,   // copied but the checksum did not match
  };

  /// Arm restore-on-first-access: the range is mapped PROT_NONE and the
  /// first touch (read or write) copies `len` bytes from `src` (a stable
  /// NVM location) into the range inside the fault handler, verifying
  /// against `crc`. Requires an mprotect-capable registration.
  void arm_lazy_restore(int handle, const std::byte* src, std::size_t len,
                        std::uint64_t crc);

  LazyState lazy_state(int handle) const;

  // Global fault accounting (paper: fault cost 6-12us each).
  std::uint64_t total_faults() const {
    return total_faults_.load(std::memory_order_relaxed);
  }
  double total_fault_seconds() const {
    return static_cast<double>(fault_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  /// Lifetime count of ::mprotect syscalls issued (arm, disarm, fault
  /// handler, lazy restore). Process-global, like total_faults().
  std::uint64_t total_mprotect_calls() const {
    return mprotect_calls_.load(std::memory_order_relaxed);
  }

  // Test hooks: sizes of the retired-snapshot list (the live snapshot
  // counts as one entry) and the unregistered-range graveyard. Bounded
  // under churn by quiescent reclamation.
  std::size_t retired_snapshot_count() const;
  std::size_t retired_range_count() const;

  /// Extra per-fault delay to emulate a slower fault path (busy-waited in
  /// the handler; default 0 = just the real handler cost).
  void set_extra_fault_latency(double seconds);

  /// Host page size (cached sysconf).
  static std::size_t host_page_size();

 private:
  ProtectionManager() = default;

  struct Range {
    std::byte* start = nullptr;
    std::size_t len = 0;
    WriteTracker* tracker = nullptr;
    TrackMode mode = TrackMode::kSoftware;
    std::atomic<bool> armed{false};
    int handle = -1;
    /// Page-level mode only: per-page dirty bits since last protect().
    std::unique_ptr<AtomicBitmap> pages;
    /// kWriteLog only: destination of logged writes for this range.
    std::unique_ptr<DirtyLogSink> sink;

    // Lazy-restore state (see LazyState; transitions via CAS so exactly
    // one faulting thread performs the copy and others wait).
    std::atomic<int> lazy_state{0};
    const std::byte* lazy_src = nullptr;
    std::size_t lazy_len = 0;
    std::uint64_t lazy_crc = 0;
  };

  using Snapshot = std::vector<Range*>;

  void install_handler_locked();
  void publish_locked();
  void try_reclaim_locked();
  Range* find_locked(int handle) const;
  std::size_t protect_ranges_locked(std::vector<Range*>& targets);
  bool handle_fault(void* addr);

  friend struct SigsegvTrampoline;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Range>> ranges_;
  /// Every published snapshot, newest last (== snapshot_). Old entries are
  /// freed by try_reclaim_locked() once no reader is in flight.
  std::vector<std::unique_ptr<Snapshot>> retired_;
  /// Unregistered Ranges an in-flight reader may still dereference via an
  /// old snapshot; reclaimed together with the snapshots.
  std::vector<std::unique_ptr<Range>> retired_ranges_;
  std::atomic<Snapshot*> snapshot_{nullptr};
  /// In-flight lock-free snapshot readers (fault handler, notify_write).
  /// seq_cst increment-before-load pairs with the seq_cst publish so the
  /// reclaimer's zero read proves quiescence (see try_reclaim_locked).
  std::atomic<std::uint64_t> readers_{0};
  int next_handle_ = 1;
  bool handler_installed_ = false;

  std::atomic<std::uint64_t> total_faults_{0};
  std::atomic<std::uint64_t> fault_ns_{0};
  std::atomic<std::uint64_t> extra_fault_ns_{0};
  std::atomic<std::uint64_t> mprotect_calls_{0};
};

}  // namespace nvmcp::vmem
