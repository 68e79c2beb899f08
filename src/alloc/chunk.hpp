// A chunk: one checkpointed application variable.
//
// Shadow buffering (paper Fig 3): the application computes against a DRAM
// working buffer; the chunk additionally owns a version ring of NVM slots
// (at depth 1, the paper's committed version plus an in-progress one).
// The allocator/checkpoint engine moves data across the DRAM->NVM
// boundary; the application never stores to NVM directly, avoiding the
// 10x store-latency penalty.
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

  /// Explicit write notification (software tracking mode, or to skip a
  /// protection fault the caller knows is coming).
  void notify_write();

  /// kWriteLog fast path: record a dirty byte range [off, off+len) of the
  /// working buffer in this chunk's log. MUST be called AFTER the store it
  /// describes -- the log's mutex is what orders the data for the copier
  /// (the store-then-log contract; see vmem/write_log.hpp). Under
  /// kSoftware it falls back to notify_write(), and under the mprotect
  /// modes it does nothing (the store's fault already recorded it), so
  /// application code can call it unconditionally.
  void log_write(std::size_t off, std::size_t len) {
    if (mode_ == vmem::TrackMode::kWriteLog) {
      tracker_.append(off, len);
    } else if (mode_ == vmem::TrackMode::kSoftware) {
      notify_write();
    }
  }

  vmem::TrackMode track_mode() const { return mode_; }

  /// Epoch of the payload sitting in the acquired ring slot from a
  /// pre-copy, 0 if none. Managed by the checkpoint engine.
  std::uint64_t precopied_epoch() const { return precopied_epoch_; }

  /// The chunk's persisted record. Library code reads the committed
  /// version through ChunkAllocator::acknowledged, under the mutex commits
  /// publish under; a direct read is only safe with no commit in flight.
  const vmem::ChunkRecord& record() const;

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

  vmem::WriteTracker tracker_;
  int prot_handle_ = -1;
  vmem::TrackMode mode_ = vmem::TrackMode::kSoftware;

  // Pre-copy state (owned by the checkpoint engine, stored here so the
  // engine stays stateless per chunk).
  std::uint64_t precopied_epoch_ = 0;
  std::uint64_t pending_checksum_ = 0;

  // kMprotectPage and kWriteLog only: per-ring-slot pending dirty byte
  // ranges (a faulted page run or logged write stays pending for a slot
  // until copied into it), one list per slot within the ring's budget of
  // depth + 1. Guarded by the manager's checkpoint mutex.
  std::vector<std::vector<DirtyRange>> slot_ranges_pending_;

  // This chunk's version ring, plus the ring slot acquired by the last
  // pre-copy and not yet committed (kNoRingSlot when none).
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
