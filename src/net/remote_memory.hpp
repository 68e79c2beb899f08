// ARMCI-style remote memory interface over the interconnect model, plus the
// remote-node NVM store that holds buddy checkpoints.
//
// The paper extends ARMCI so applications (and the per-node helper process)
// can "allocate, access and copy NVM buffers to local as well as remote
// destination nodes", leveraging RDMA to remote NVM. Here a RemoteStore is
// the buddy node's NVM (a device whose chunk records each hold a depth-1
// version ring, committed through the same epoch::VersionRing as local
// checkpoints), and RemoteMemory::put/get move
// chunk payloads through the shared interconnect's block loop, pipelined
// against the remote NVM's own bandwidth (a transfer is throttled by
// whichever of the link or the device is slower, as RDMA-to-NVM would be).
//
// The buddy's chunk records are the one description of what it holds (a
// put stages its frame's epoch, CRC and length in the pair's in-progress
// slot; a commit publishes it), so a store reopened from its device file
// serves every committed frame.
#pragma once

#include <cstdint>
#include <mutex>

#include "epoch/directory.hpp"
#include "net/interconnect.hpp"
#include "nvm/device.hpp"
#include "vmem/container.hpp"

namespace nvmcp::net {

/// Result of one remote put. `ok` is false when the transfer was lost in
/// transit (injected outage or sampled drop): the in-progress slot keeps
/// its old payload and nothing new is staged, so a later commit of that
/// epoch publishes nothing. Callers that care about delivery (the remote
/// checkpoint helper's retry layer) must check `ok` -- a dropped put is a
/// recoverable transport failure, not a slow one.
struct PutResult {
  bool ok = false;
  double seconds = 0;  // transfer time spent (0 when dropped)
  explicit operator bool() const noexcept { return ok; }
};

/// The buddy/IO node's NVM checkpoint store.
class RemoteStore {
 public:
  explicit RemoteStore(NvmConfig cfg);

  RemoteStore(const RemoteStore&) = delete;
  RemoteStore& operator=(const RemoteStore&) = delete;

  NvmDevice& device() { return dev_; }

  /// Attach a fault injector (chaos campaigns): puts/gets are dropped in
  /// transit during outage windows or at the injector's sampled loss
  /// rate. nullptr detaches.
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

  /// Write `n` bytes into the in-progress slot of (src_rank, chunk_id),
  /// whose slots hold `capacity` bytes (allocated on first use, freed
  /// when the capacity changes; the helper keeps it at max_frame_size of
  /// the payload, so codec-dependent frame sizes never realloc), and stage
  /// them as `epoch`'s frame with the CRC of the bytes the slot holds;
  /// what the slot had staged is cleared before the first byte moves.
  /// Only the `n` bytes cross `link`, paced with the remote NVM write
  /// bandwidth and counted as checkpoint traffic. If `commit`, the frame
  /// is committed at once. Puts of one pair must not overlap (the helper
  /// serializes its sends); a commit may race a put. Returns whether the
  /// bytes arrived plus seconds spent.
  PutResult put(std::uint32_t src_rank, std::uint64_t chunk_id,
                const void* data, std::size_t n, std::size_t capacity,
                std::uint64_t epoch, bool commit, Interconnect& link);

  /// Publish the pair's frame staged as `epoch` (the coordinated remote
  /// checkpoint's commit). Returns whether the pair's committed epoch is
  /// now `epoch`, also when it already was; false when nothing is staged
  /// as `epoch`, as while a put is still writing the slot.
  bool commit(std::uint32_t src_rank, std::uint64_t chunk_id,
              std::uint64_t epoch);

  /// Read the committed bytes of a pair into dst (capacity cap), the
  /// restart path. Returns their length, or 0 when the pair is unknown or
  /// uncommitted, the bytes exceed cap, or they fail their checksum.
  std::size_t get(std::uint32_t src_rank, std::uint64_t chunk_id, void* dst,
                  std::size_t cap, Interconnect& link);

  /// Committed epoch for a pair, 0 if none.
  std::uint64_t committed_epoch(std::uint32_t src_rank,
                                std::uint64_t chunk_id) const;

  /// Newest epoch of the pair's committed or staged frame, 0 if none (the
  /// helper's check before a send, and a restart's floor for its next
  /// epoch; a one-sided read of the record on hardware).
  std::uint64_t held_epoch(std::uint32_t src_rank,
                           std::uint64_t chunk_id) const;

  std::size_t stored_chunks() const;

  /// Chaos hook: flip one random bit (drawn from `fi`'s stream) inside
  /// the committed bytes of a pair, as in-transit or at-rest
  /// corruption would. Returns false when the pair is unknown or
  /// uncommitted. Campaigns use this to prove corrupted encoded payloads
  /// are *detected* at fetch/decode, never laundered into restored state.
  bool corrupt_committed(std::uint32_t src_rank, std::uint64_t chunk_id,
                         fault::FaultInjector& fi);

 private:
  static std::uint64_t pair_id(std::uint32_t src_rank, std::uint64_t chunk_id);

  NvmDevice dev_;
  fault::FaultInjector* injector_ = nullptr;
  vmem::Container container_;
  epoch::EpochDirectory dir_;  // depth 1: one ring per pair
  mutable std::mutex mu_;      // guards every pair's record
};

/// The node-side handle pairing a link with a destination store.
class RemoteMemory {
 public:
  RemoteMemory(Interconnect& link, RemoteStore& store)
      : link_(&link), store_(&store) {}

  /// Remote put (see RemoteStore::put); accounted as checkpoint traffic.
  PutResult put(std::uint32_t src_rank, std::uint64_t chunk_id,
                const void* data, std::size_t n, std::size_t capacity,
                std::uint64_t epoch, bool commit) {
    return store_->put(src_rank, chunk_id, data, n, capacity, epoch, commit,
                       *link_);
  }

  bool commit(std::uint32_t src_rank, std::uint64_t chunk_id,
              std::uint64_t epoch) {
    return store_->commit(src_rank, chunk_id, epoch);
  }

  /// Remote get (restart fetch, see RemoteStore::get); accounted as
  /// checkpoint traffic.
  std::size_t get(std::uint32_t src_rank, std::uint64_t chunk_id, void* dst,
                  std::size_t cap) {
    return store_->get(src_rank, chunk_id, dst, cap, *link_);
  }

  /// Application communication phase: occupy the link with `bytes` of
  /// app-class traffic (MPI halo exchanges etc. in the workload driver).
  double app_communicate(std::size_t bytes) {
    return link_->transfer(bytes, TrafficClass::kApplication);
  }

  Interconnect& link() { return *link_; }
  RemoteStore& store() { return *store_; }

 private:
  Interconnect* link_;
  RemoteStore* store_;
};

}  // namespace nvmcp::net
