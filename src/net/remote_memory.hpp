// ARMCI-style remote memory interface over the interconnect model, plus the
// remote-node NVM store that holds buddy checkpoints.
//
// The paper extends ARMCI so applications (and the per-node helper process)
// can "allocate, access and copy NVM buffers to local as well as remote
// destination nodes", leveraging RDMA to remote NVM. Here a RemoteStore is
// the buddy node's NVM (a device whose chunk records each hold a depth-1
// version ring, committed through the same epoch::VersionRing as local
// checkpoints), and RemoteMemory::put/get move
// chunk payloads through the shared interconnect, pipelined against the
// remote NVM's own write bandwidth (a transfer is throttled by whichever of
// the link or the device is slower, as RDMA-to-NVM would be).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/checksum.hpp"
#include "epoch/directory.hpp"
#include "net/interconnect.hpp"
#include "nvm/device.hpp"
#include "vmem/container.hpp"

namespace nvmcp::net {

/// Result of one remote put. `ok` is false when the transfer was lost in
/// transit (injected outage or sampled drop): the in-progress slot keeps
/// its old payload and no pending checksum is recorded, so a later commit
/// of that epoch is a no-op. Callers that care about delivery (the remote
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
  /// the payload, so codec-dependent frame sizes never realloc). Only the
  /// `n` bytes cross `link` (may be null), paced with the remote NVM
  /// write bandwidth and counted as checkpoint traffic; `pace` optionally
  /// rate-limits them further. If `commit`, the slot is committed with
  /// `epoch`. Returns whether the bytes arrived plus seconds spent.
  PutResult put(std::uint32_t src_rank, std::uint64_t chunk_id,
                const void* data, std::size_t n, std::size_t capacity,
                std::uint64_t epoch, bool commit, Interconnect* link,
                BandwidthLimiter* pace = nullptr);

  /// Commit whatever the in-progress slot of the pair holds as `epoch`.
  /// Used for coordinated remote checkpoints where the payload arrived in
  /// earlier pre-copy puts. No-op if the pair is unknown.
  void commit(std::uint32_t src_rank, std::uint64_t chunk_id,
              std::uint64_t epoch);

  /// Read the committed bytes of a pair into dst (capacity cap), the
  /// restart path. Returns their length, or 0 when the pair is unknown or
  /// uncommitted, the bytes exceed cap, or they fail their checksum.
  std::size_t get(std::uint32_t src_rank, std::uint64_t chunk_id, void* dst,
                  std::size_t cap, Interconnect* link);

  /// Committed epoch for a pair, 0 if none.
  std::uint64_t committed_epoch(std::uint32_t src_rank,
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
  mutable std::mutex mu_;
  // Data currently sitting (uncommitted) in each pair's in-progress slot.
  struct Pending {
    std::uint64_t checksum = 0;
    std::uint64_t epoch = 0;
    std::size_t len = 0;
    std::uint32_t slot = 0;
  };
  std::map<std::uint64_t, Pending> pending_;
  // Length of each pair's committed bytes (<= the record size).
  std::map<std::uint64_t, std::size_t> committed_len_;
};

/// The node-side handle pairing a link with a destination store.
class RemoteMemory {
 public:
  RemoteMemory(Interconnect& link, RemoteStore& store)
      : link_(&link), store_(&store) {}

  /// Remote put (see RemoteStore::put); accounted as checkpoint traffic.
  PutResult put(std::uint32_t src_rank, std::uint64_t chunk_id,
                const void* data, std::size_t n, std::size_t capacity,
                std::uint64_t epoch, bool commit,
                BandwidthLimiter* pace = nullptr) {
    return store_->put(src_rank, chunk_id, data, n, capacity, epoch, commit,
                       link_, pace);
  }

  void commit(std::uint32_t src_rank, std::uint64_t chunk_id,
              std::uint64_t epoch) {
    store_->commit(src_rank, chunk_id, epoch);
  }

  /// Remote get (restart fetch, see RemoteStore::get); accounted as
  /// checkpoint traffic.
  std::size_t get(std::uint32_t src_rank, std::uint64_t chunk_id, void* dst,
                  std::size_t cap) {
    return store_->get(src_rank, chunk_id, dst, cap, link_);
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
