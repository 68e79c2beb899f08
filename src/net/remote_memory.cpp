#include "net/remote_memory.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "fault/injector.hpp"

namespace nvmcp::net {
namespace {

// One link block per segment: a checkpoint put or fetch yields to
// application traffic between segments (Interconnect::await_app_idle), so
// an application transfer waits for at most one segment.
constexpr std::size_t kSegment = ThrottledCopier::kBlockSize;

}  // namespace

RemoteStore::RemoteStore(NvmConfig cfg)
    : dev_(std::move(cfg)), container_(dev_), dir_(container_, {1}) {}

std::uint64_t RemoteStore::pair_id(std::uint32_t src_rank,
                                   std::uint64_t chunk_id) {
  // Mix rank and chunk id into one 64-bit key (splitmix-style finalizer).
  std::uint64_t z = chunk_id ^ (static_cast<std::uint64_t>(src_rank) << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z ? z : 1;
}

PutResult RemoteStore::put(std::uint32_t src_rank, std::uint64_t chunk_id,
                           const void* data, std::size_t n,
                           std::size_t capacity, std::uint64_t epoch,
                           bool do_commit, Interconnect* link,
                           BandwidthLimiter* pace) {
  if (n == 0 || n > capacity) return PutResult{false, 0.0};
  if (injector_ && injector_->armed() && injector_->should_drop_remote_op()) {
    // Lost in transit: the in-progress slot keeps its old payload and no
    // pending checksum is recorded, so a later commit of this epoch is a
    // no-op (exactly what a dropped RDMA put looks like to the store).
    return PutResult{false, 0.0};
  }
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  epoch::VersionRing::Acquired slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch::VersionRing* ring = dir_.ring(id);
    if (ring && ring->payload_bytes() != capacity) {
      // Capacity changed (nvrealloc on the source): ensure_ring frees the
      // old slots, which any pending or committed length referred to.
      pending_.erase(id);
      committed_len_.erase(id);
    }
    slot = dir_.ensure_ring(id, capacity, nullptr, "remote")
               ->acquire_for_commit();
  }
  const auto* src = static_cast<const std::byte*>(data);
  const Stopwatch sw;
  std::size_t done = 0;
  // Chunk-granular pacing ("moving in granularity of chunks instead of
  // moving all checkpoint data at once"): wait for the whole chunk's pace
  // credit, then transfer the chunk at full fabric speed.
  if (pace) sleep_until(pace->acquire(n));
  while (done < n) {
    const std::size_t len = std::min(kSegment, n - done);
    if (link) link->await_app_idle();
    // Pipeline: the device write path is additionally paced by the link
    // limiter, so the segment moves at min(link bw, NVM write bw).
    dev_.write(slot.off + done, src + done, len,
               link ? &link->limiter() : nullptr);
    if (link) link->note_bytes(len, TrafficClass::kCheckpoint);
    done += len;
  }
  dev_.flush(slot.off, n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[id] = Pending{crc64(data, n), epoch, n, slot.index};
  }
  if (do_commit) commit(src_rank, chunk_id, epoch);
  return PutResult{true, sw.elapsed()};
}

void RemoteStore::commit(std::uint32_t src_rank, std::uint64_t chunk_id,
                         std::uint64_t epoch) {
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(id);
  auto it = pending_.find(id);
  if (!ring || it == pending_.end()) return;
  if (it->second.epoch != epoch) return;  // stale pre-copy; not this epoch
  ring->publish(it->second.slot, epoch, it->second.checksum);
  committed_len_[id] = it->second.len;
  pending_.erase(it);
}

std::size_t RemoteStore::get(std::uint32_t src_rank, std::uint64_t chunk_id,
                             void* dst, std::size_t cap, Interconnect* link) {
  if (injector_ && injector_->armed() && injector_->should_drop_remote_op()) {
    return 0;
  }
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::optional<epoch::RingSlot> acked;
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch::VersionRing* ring = dir_.ring(id)) acked = ring->acknowledged();
    auto it = committed_len_.find(id);
    if (it != committed_len_.end()) n = it->second;
  }
  if (!acked || n == 0 || n > cap) return 0;
  auto* d = static_cast<std::byte*>(dst);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t len = std::min(kSegment, n - done);
    if (link) link->await_app_idle();
    dev_.read(acked->off + done, d + done, len,
              link ? &link->limiter() : nullptr);
    if (link) link->note_bytes(len, TrafficClass::kCheckpoint);
    done += len;
  }
  return crc64(dst, n) == acked->checksum ? n : 0;
}

std::uint64_t RemoteStore::committed_epoch(std::uint32_t src_rank,
                                           std::uint64_t chunk_id) const {
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(id);
  return ring ? ring->newest_epoch() : 0;
}

std::size_t RemoteStore::stored_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return container_.metadata().record_count();
}

bool RemoteStore::corrupt_committed(std::uint32_t src_rank,
                                    std::uint64_t chunk_id,
                                    fault::FaultInjector& fi) {
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(id);
  const std::optional<epoch::RingSlot> acked =
      ring ? ring->acknowledged() : std::nullopt;
  auto it = committed_len_.find(id);
  if (!acked || it == committed_len_.end()) return false;
  fi.flip_random_bit(dev_.data() + acked->off, it->second);
  return true;
}

}  // namespace nvmcp::net
