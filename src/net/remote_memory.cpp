#include "net/remote_memory.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "fault/injector.hpp"

namespace nvmcp::net {
namespace {

constexpr std::size_t kSegment = 1 * MiB;

}  // namespace

RemoteStore::RemoteStore(NvmConfig cfg)
    : dev_(std::move(cfg)), container_(dev_) {}

std::uint64_t RemoteStore::pair_id(std::uint32_t src_rank,
                                   std::uint64_t chunk_id) {
  // Mix rank and chunk id into one 64-bit key (splitmix-style finalizer).
  std::uint64_t z = chunk_id ^ (static_cast<std::uint64_t>(src_rank) << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z ? z : 1;
}

vmem::ChunkRecord* RemoteStore::find_or_create(std::uint64_t id,
                                               std::size_t capacity) {
  auto& meta = container_.metadata();
  vmem::ChunkRecord* rec = meta.find(id);
  if (rec && rec->size != capacity) {
    // Capacity changed (nvrealloc on the source): replace the slots. Any
    // pending or committed length referred to the old slots.
    container_.free_region(rec->slot_off[0], rec->size);
    container_.free_region(rec->slot_off[1], rec->size);
    meta.erase(id);
    pending_.erase(id);
    committed_len_.erase(id);
    rec = nullptr;
  }
  if (!rec) {
    rec = meta.insert(id, "remote");
    rec->size = capacity;
    rec->slot_off[0] = container_.alloc_region(capacity);
    rec->slot_off[1] = container_.alloc_region(capacity);
    rec->flags |= vmem::ChunkRecord::kPersistent;
    meta.persist_record(*rec);
  }
  return rec;
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
  vmem::ChunkRecord* rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec = find_or_create(id, capacity);
  }
  const std::uint32_t slot = rec->in_progress_slot();
  const auto* src = static_cast<const std::byte*>(data);
  const Stopwatch sw;
  std::size_t done = 0;
  // Chunk-granular pacing ("moving in granularity of chunks instead of
  // moving all checkpoint data at once"): wait for the whole chunk's pace
  // credit, then transfer the chunk at full fabric speed.
  if (pace) sleep_until(pace->acquire(n));
  while (done < n) {
    const std::size_t len = std::min(kSegment, n - done);
    // Pipeline: the device write path is additionally paced by the link
    // limiter, so the segment moves at min(link bw, NVM write bw).
    dev_.write(rec->slot_off[slot] + done, src + done, len,
               link ? &link->limiter() : nullptr);
    if (link) link->note_bytes(len, TrafficClass::kCheckpoint);
    done += len;
  }
  dev_.flush(rec->slot_off[slot], n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[id] = Pending{crc64(data, n), epoch, n};
  }
  if (do_commit) commit(src_rank, chunk_id, epoch);
  return PutResult{true, sw.elapsed()};
}

void RemoteStore::commit(std::uint32_t src_rank, std::uint64_t chunk_id,
                         std::uint64_t epoch) {
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::lock_guard<std::mutex> lock(mu_);
  vmem::ChunkRecord* rec = container_.metadata().find(id);
  auto it = pending_.find(id);
  if (!rec || it == pending_.end()) return;
  if (it->second.epoch != epoch) return;  // stale pre-copy; not this epoch
  const std::uint32_t slot = rec->in_progress_slot();
  rec->checksum[slot] = it->second.checksum;
  rec->epoch[slot] = epoch;
  container_.metadata().persist_record(*rec);
  rec->committed = slot;
  container_.metadata().persist_record(*rec);
  committed_len_[id] = it->second.len;
  pending_.erase(it);
}

std::size_t RemoteStore::get(std::uint32_t src_rank, std::uint64_t chunk_id,
                             void* dst, std::size_t cap, Interconnect* link) {
  if (injector_ && injector_->armed() && injector_->should_drop_remote_op()) {
    return 0;
  }
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  vmem::ChunkRecord* rec;
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec = container_.metadata().find(id);
    auto it = committed_len_.find(id);
    if (it != committed_len_.end()) n = it->second;
  }
  if (!rec || !rec->has_committed() || n == 0 || n > cap) return 0;
  auto* d = static_cast<std::byte*>(dst);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t len = std::min(kSegment, n - done);
    dev_.read(rec->slot_off[rec->committed] + done, d + done, len,
              link ? &link->limiter() : nullptr);
    if (link) link->note_bytes(len, TrafficClass::kCheckpoint);
    done += len;
  }
  return crc64(dst, n) == rec->checksum[rec->committed] ? n : 0;
}

std::uint64_t RemoteStore::committed_epoch(std::uint32_t src_rank,
                                           std::uint64_t chunk_id) const {
  const std::uint64_t id = pair_id(src_rank, chunk_id);
  std::lock_guard<std::mutex> lock(mu_);
  const vmem::ChunkRecord* rec = container_.metadata().find(id);
  if (!rec || !rec->has_committed()) return 0;
  return rec->epoch[rec->committed];
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
  vmem::ChunkRecord* rec = container_.metadata().find(id);
  auto it = committed_len_.find(id);
  if (!rec || !rec->has_committed() || it == committed_len_.end()) {
    return false;
  }
  fi.flip_random_bit(dev_.data() + rec->slot_off[rec->committed],
                     it->second);
  return true;
}

}  // namespace nvmcp::net
