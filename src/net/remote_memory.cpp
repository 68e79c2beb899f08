#include "net/remote_memory.hpp"

#include "common/checksum.hpp"
#include "common/clock.hpp"
#include "fault/injector.hpp"

namespace nvmcp::net {

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
                           bool do_commit, Interconnect& link) {
  if (n == 0 || n > capacity) return PutResult{false, 0.0};
  if (injector_ && injector_->armed() && injector_->should_drop_remote_op()) {
    // Lost in transit: the in-progress slot keeps its old payload and
    // nothing new is staged, so a later commit of this epoch publishes
    // nothing (exactly what a dropped RDMA put looks like to the store).
    return PutResult{false, 0.0};
  }
  epoch::VersionRing* ring;
  epoch::VersionRing::Acquired slot;
  {
    // A capacity change (nvrealloc on the source) frees every slot.
    std::lock_guard<std::mutex> lock(mu_);
    ring = dir_.ensure_ring(pair_id(src_rank, chunk_id), capacity, nullptr,
                            "remote");
    slot = ring->acquire_for_commit();
  }
  const auto* src = static_cast<const std::byte*>(data);
  const Stopwatch sw;
  // Each block is one device write paced by the link limiter, its CRC
  // taken from the bytes just placed in the slot.
  std::uint64_t crc = crc64_init();
  link.transfer(n, TrafficClass::kCheckpoint,
                [&](std::size_t off, std::size_t len, BandwidthLimiter& pace) {
                  dev_.write(slot.off + off, src + off, len, &pace, &crc);
                });
  dev_.flush(slot.off, n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring->stage(slot.index, epoch, crc64_final(crc), n);
  }
  if (do_commit) commit(src_rank, chunk_id, epoch);
  return PutResult{true, sw.elapsed()};
}

bool RemoteStore::commit(std::uint32_t src_rank, std::uint64_t chunk_id,
                         std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(pair_id(src_rank, chunk_id));
  return ring && ring->publish_staged(epoch);
}

std::size_t RemoteStore::get(std::uint32_t src_rank, std::uint64_t chunk_id,
                             void* dst, std::size_t cap, Interconnect& link) {
  if (injector_ && injector_->armed() && injector_->should_drop_remote_op()) {
    return 0;
  }
  std::optional<epoch::RingSlot> acked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch::VersionRing* ring = dir_.ring(pair_id(src_rank, chunk_id))) {
      acked = ring->acknowledged();
    }
  }
  if (!acked || acked->len == 0 || acked->len > cap) return 0;
  auto* d = static_cast<std::byte*>(dst);
  std::uint64_t crc = crc64_init();
  link.transfer(acked->len, TrafficClass::kCheckpoint,
                [&](std::size_t off, std::size_t len, BandwidthLimiter& pace) {
                  dev_.read(acked->off + off, d + off, len, &pace, &crc);
                });
  return crc64_final(crc) == acked->checksum ? acked->len : 0;
}

std::uint64_t RemoteStore::committed_epoch(std::uint32_t src_rank,
                                           std::uint64_t chunk_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(pair_id(src_rank, chunk_id));
  return ring ? ring->newest_epoch() : 0;
}

std::uint64_t RemoteStore::held_epoch(std::uint32_t src_rank,
                                      std::uint64_t chunk_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(pair_id(src_rank, chunk_id));
  return ring ? ring->held_epoch() : 0;
}

std::size_t RemoteStore::stored_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return container_.metadata().record_count();
}

bool RemoteStore::corrupt_committed(std::uint32_t src_rank,
                                    std::uint64_t chunk_id,
                                    fault::FaultInjector& fi) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch::VersionRing* ring = dir_.ring(pair_id(src_rank, chunk_id));
  const std::optional<epoch::RingSlot> acked =
      ring ? ring->acknowledged() : std::nullopt;
  if (!acked) return false;
  fi.flip_random_bit(dev_.data() + acked->off, acked->len);
  return true;
}

}  // namespace nvmcp::net
