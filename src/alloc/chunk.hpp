// A chunk: one checkpointed application variable.
//
// Shadow buffering (paper Fig 3): the application computes against a DRAM
// working buffer; the chunk additionally owns two shadow slots in NVM (a
// committed version and an in-progress version). The allocator/checkpoint
// engine moves data across the DRAM->NVM boundary; the application never
// stores to NVM directly, avoiding the 10x store-latency penalty.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "vmem/metadata.hpp"
#include "vmem/protection.hpp"

namespace nvmcp::epoch {
class VersionRing;
}

namespace nvmcp::alloc {

class ChunkAllocator;

class Chunk {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t size() const { return size_; }
  bool persistent() const { return persistent_; }

  /// DRAM working buffer (what nvalloc returns to the application).
  void* data() { return dram_; }
  const void* data() const { return dram_; }
  template <typename T>
  T* as() {
    return static_cast<T*>(data());
  }

  /// Result of the restore attempt made when this chunk was allocated with
  /// the persistent flag against a reopened device.
  RestoreStatus restore_status() const { return restore_status_; }
  bool restored() const {
    return restore_status_ == RestoreStatus::kOk ||
           restore_status_ == RestoreStatus::kOkFromRemote ||
           restore_status_ == RestoreStatus::kOkStale;
  }

  // --- dirty tracking --------------------------------------------------
  vmem::WriteTracker& tracker() { return tracker_; }
  const vmem::WriteTracker& tracker() const { return tracker_; }

  bool dirty_local() const {
    return tracker_.dirty_local.load(std::memory_order_acquire);
  }
  bool dirty_remote() const {
    return tracker_.dirty_remote.load(std::memory_order_acquire);
  }

  /// Explicit write notification (software tracking mode, or to skip a
  /// protection fault the caller knows is coming).
  void notify_write();

  /// kWriteLog fast path: record a dirty byte range [off, off+len) of the
  /// working buffer. MUST be called AFTER the store it describes -- the
  /// record's release-publish is what orders the data for the copier (the
  /// store-then-log contract; see vmem/write_log.hpp). Falls back to
  /// notify_write() for other tracking modes, so application code can call
  /// it unconditionally.
  void log_write(std::size_t off, std::size_t len) {
    if (log_sink_) {
      vmem::WriteLogRegistry::instance().append(log_sink_, off, len);
    } else {
      notify_write();
    }
  }

  vmem::TrackMode track_mode() const { return mode_; }

  /// Epoch of the payload sitting in the in-progress slot from a pre-copy,
  /// 0 if none. Managed by the checkpoint engine.
  std::uint64_t precopied_epoch() const { return precopied_epoch_; }

  /// Sampled-entropy estimate of the payload in bits/byte, refreshed by
  /// every copy pass (the codec probe fused into precopy, like the CRC).
  /// -1 until the chunk has been copied once. A hint, not a guarantee:
  /// concurrent stores may have changed the payload since.
  double entropy_hint() const {
    const std::uint32_t v =
        entropy_millibits_.load(std::memory_order_relaxed);
    return v == kEntropyUnknown ? -1.0 : static_cast<double>(v) / 1000.0;
  }

  vmem::ChunkRecord& record() { return *record_; }
  const vmem::ChunkRecord& record() const { return *record_; }

 private:
  friend class ChunkAllocator;
  Chunk() = default;

  std::uint64_t id_ = 0;
  std::string name_;
  std::size_t size_ = 0;
  std::size_t dram_capacity_ = 0;  // page-rounded mmap length (0: attached)
  std::byte* dram_ = nullptr;
  bool owns_dram_ = false;
  bool persistent_ = false;
  RestoreStatus restore_status_ = RestoreStatus::kNoData;

  vmem::ChunkRecord* record_ = nullptr;
  vmem::WriteTracker tracker_;
  int prot_handle_ = -1;
  vmem::TrackMode mode_ = vmem::TrackMode::kSoftware;
  /// kWriteLog only: cached ProtectionManager sink (stable for the
  /// registration's lifetime) so log_write stays lock-free.
  vmem::DirtyLogSink* log_sink_ = nullptr;

  // Pre-copy state (owned by the checkpoint engine, stored here so the
  // engine stays stateless per chunk).
  std::uint64_t precopied_epoch_ = 0;
  std::uint64_t pending_checksum_ = 0;

  /// Millibits/byte from the last copy pass's entropy probe (relaxed
  /// atomic: written by the copier, read by the remote helper's codec
  /// tuner on another thread).
  static constexpr std::uint32_t kEntropyUnknown = ~0u;
  std::atomic<std::uint32_t> entropy_millibits_{kEntropyUnknown};

  // Page-level tracking mode only: per-NVM-slot pending page sets (a page
  // is pending for a slot until its contents have been copied into that
  // slot). One byte per page; guarded by the manager's checkpoint mutex.
  // Two slots in the legacy two-slot scheme, kMaxRingSlots with a ring.
  std::vector<std::vector<std::uint8_t>> slot_pages_pending_;

  // kWriteLog only: per-NVM-slot pending dirty byte ranges (a logged range
  // stays pending for a slot until copied into it). Guarded by the
  // manager's checkpoint mutex. Sized like slot_pages_pending_.
  std::vector<std::vector<vmem::DirtyRange>> slot_ranges_pending_;

  // Multi-version mode only (allocator ring_depth > 1): this chunk's
  // version ring, plus the ring slot acquired by the last pre-copy and
  // not yet committed (kNoRingSlot when none).
  static constexpr std::uint32_t kNoRingSlot = ~0u;
  epoch::VersionRing* ring_ = nullptr;
  std::uint32_t ring_slot_ = kNoRingSlot;
  std::uint64_t ring_slot_off_ = 0;

  /// Tracker event count (WriteTracker::write_events) snapshotted just
  /// before ChunkAllocator::arm_chunks armed this chunk: a later mismatch
  /// means a fault or notify may have disarmed it, so the pre-copy must
  /// re-arm it individually before its clear-and-recheck dance.
  std::uint64_t batch_armed_events_ = 0;
};

}  // namespace nvmcp::alloc
