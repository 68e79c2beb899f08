#include "alloc/nvmalloc.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/checksum.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "compress/codec.hpp"

namespace nvmcp::alloc {
namespace {

std::byte* map_dram(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw NvmcpError("nvalloc: mmap DRAM buffer failed");
  return static_cast<std::byte*>(p);
}

std::uint64_t resolve_merge_gap(long configured) {
  if (configured >= 0) return static_cast<std::uint64_t>(configured);
  return static_cast<std::uint64_t>(
      env::get_i64("NVMCP_DIRTY_LOG_MERGE_GAP", 512, 0, INT64_MAX));
}

double resolve_max_coverage(double configured) {
  if (configured >= 0) return std::clamp(configured, 0.0, 1.0);
  return env::get_double("NVMCP_DIRTY_LOG_MAX_COVERAGE", 0.5, 0.0, 1.0);
}

}  // namespace

std::uint64_t genid(std::string_view varname) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : varname) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h ? h : 1;  // 0 is reserved for "no chunk"
}

ChunkAllocator::ChunkAllocator(vmem::Container& container)
    : ChunkAllocator(container, Options{}) {}

ChunkAllocator::ChunkAllocator(vmem::Container& container, Options opts)
    : container_(&container),
      opts_(opts),
      log_merge_gap_(resolve_merge_gap(opts.dirty_log_merge_gap)),
      log_max_coverage_(resolve_max_coverage(opts.dirty_log_max_coverage)),
      ring_depth_(epoch::resolve_ring_depth(opts.ring_depth)) {
  if (opts_.shared_dir) {
    // Arena mode: the directory (and its depth) belongs to the arena; all
    // tenants share the container's single epoch region.
    dir_ = opts_.shared_dir;
    ring_depth_ = dir_->ring_depth();
  } else if (ring_depth_ > 1) {
    owned_dir_ = std::make_unique<epoch::EpochDirectory>(
        container, epoch::EpochDirectory::Options{ring_depth_});
    dir_ = owned_dir_.get();
  } else if (container.metadata().header().epoch_region_off != 0) {
    // Depth 1 is the paper's two-slot scheme: no directory, no ring
    // records, zero extra NVM traffic. It cannot address ring slots, so a
    // container written at depth > 1 is refused rather than migrated.
    throw NvmcpError(
        "nvalloc: container holds version rings; reopen it at depth > 1");
  }
}

ChunkAllocator::~ChunkAllocator() {
  std::unique_lock lock(mu_);
  for (auto& c : chunks_) {
    // Legacy two-slot regions are claimed per allocator lifetime: credit
    // the quota so a reattached tenant handle re-charges them cleanly.
    // Ring footprints stay charged — the ring (and its quota pointer)
    // outlives this handle inside the shared directory.
    if (opts_.quota && !c->ring_ && c->record_) {
      if (c->record_->slot_off[0]) opts_.quota->credit(c->record_->size);
      if (c->record_->slot_off[1]) opts_.quota->credit(c->record_->size);
    }
    release_chunk_locked(*c, /*free_regions=*/false);
  }
  chunks_.clear();
}

Chunk* ChunkAllocator::nvalloc(std::uint64_t id, std::size_t size,
                               bool persistent, std::string_view name) {
  return alloc_common(id, size, persistent, name, nullptr);
}

Chunk* ChunkAllocator::nvalloc(std::string_view varname, std::size_t size,
                               bool persistent) {
  return alloc_common(genid(varname), size, persistent, varname, nullptr);
}

Chunk* ChunkAllocator::nv2dalloc(std::string_view varname, std::size_t dim1,
                                 std::size_t dim2, std::size_t elem,
                                 bool persistent) {
  return nvalloc(varname, dim1 * dim2 * elem, persistent);
}

Chunk* ChunkAllocator::nvattach(std::uint64_t id, void* src, std::size_t size,
                                std::string_view name) {
  return alloc_common(id, size, /*persistent=*/true, name, src);
}

Chunk* ChunkAllocator::alloc_common(std::uint64_t id, std::size_t size,
                                    bool persistent, std::string_view name,
                                    void* attach_src) {
  if (id == 0 || size == 0) {
    throw NvmcpError("nvalloc: id and size must be non-zero");
  }
  std::unique_lock lock(mu_);
  for (const auto& c : chunks_) {
    if (c->id() == id) {
      throw NvmcpError("nvalloc: chunk id already allocated in this process");
    }
  }

  auto& meta = container_->metadata();
  vmem::ChunkRecord* rec = meta.find(id);
  const bool fresh_record = rec == nullptr;
  if (fresh_record) {
    rec = meta.insert(id, name);
  } else if (rec->size != size) {
    // Size changed across sessions: old payload cannot be restored; replace
    // the version slots. With a ring the record's slot offsets alias ring
    // slots, so the drop (which frees every retained region) is the only
    // free -- freeing slot_off too would double-free.
    if (dir_ && dir_->ring(id)) {
      dir_->drop_ring(id);
    } else {
      if (rec->slot_off[0]) container_->free_region(rec->slot_off[0],
                                                    rec->size);
      if (rec->slot_off[1]) container_->free_region(rec->slot_off[1],
                                                    rec->size);
    }
    rec->slot_off[0] = 0;
    rec->slot_off[1] = 0;
    rec->committed = vmem::ChunkRecord::kNoneCommitted;
    rec->size = 0;
  }
  // Depth-1 chunks claim both version slots for the life of this handle;
  // the quota is charged up front (enforcement at acquisition), whether
  // the regions are carved fresh below or re-claimed from a reattach.
  // Ring-mode footprints are charged by the ring itself as slots allocate.
  if (!dir_ && opts_.quota) opts_.quota->charge(2 * size);
  if (rec->size == 0) {
    rec->size = size;
    if (dir_) {
      // Ring mode: version slots live in the ring and are allocated
      // lazily at first commit; the record's offsets are filled when a
      // commit publishes, aliasing the ring slot it landed in.
      rec->slot_off[0] = 0;
      rec->slot_off[1] = 0;
    } else {
      rec->slot_off[0] = container_->alloc_region(size);
      rec->slot_off[1] = container_->alloc_region(size);
    }
    rec->committed = vmem::ChunkRecord::kNoneCommitted;
    if (persistent) rec->flags |= vmem::ChunkRecord::kPersistent;
    meta.persist_record(*rec);
  }

  auto chunk = std::unique_ptr<Chunk>(new Chunk());
  Chunk& c = *chunk;
  c.id_ = id;
  c.name_ = std::string(name);
  c.size_ = size;
  c.persistent_ = persistent;
  c.record_ = rec;
  if (attach_src) {
    c.dram_ = static_cast<std::byte*>(attach_src);
    c.owns_dram_ = false;
    c.mode_ = vmem::TrackMode::kSoftware;
  } else {
    c.dram_capacity_ =
        round_up(size, vmem::ProtectionManager::host_page_size());
    c.dram_ = map_dram(c.dram_capacity_);
    c.owns_dram_ = true;
    c.mode_ = opts_.track_mode;
  }

  // A new working buffer has never been checkpointed: consider it dirty.
  c.tracker_.dirty_local.store(true, std::memory_order_release);
  c.tracker_.dirty_remote.store(true, std::memory_order_release);

  const std::size_t track_len = c.owns_dram_ ? c.dram_capacity_ : c.size_;
  c.prot_handle_ = vmem::ProtectionManager::instance().register_range(
      c.dram_, track_len, &c.tracker_, c.mode_);
  if (dir_) c.ring_ = dir_->ensure_ring(id, size, opts_.quota);
  if (c.mode_ == vmem::TrackMode::kWriteLog) {
    c.log_sink_ =
        vmem::ProtectionManager::instance().log_sink(c.prot_handle_);
  }
  // Everything is pending for every slot until the first full copies.
  reset_pending_lists(c);

  if (persistent && !fresh_record && rec->has_committed()) {
    c.restore_status_ = restore_chunk(c);
  }

  Chunk* out = &c;
  chunks_.push_back(std::move(chunk));
  log_debug("nvalloc: chunk id=%llu size=%zu %s restore=%s",
            static_cast<unsigned long long>(id), size,
            attach_src ? "(attached)" : "",
            to_string(out->restore_status_));
  return out;
}

std::size_t ChunkAllocator::pending_slot_count() const {
  return dir_ ? epoch::kMaxRingSlots : 2;
}

void ChunkAllocator::reset_pending_lists(Chunk& c) {
  const std::size_t nslots = pending_slot_count();
  if (c.mode_ == vmem::TrackMode::kMprotectPage) {
    const std::size_t track_len = c.owns_dram_ ? c.dram_capacity_ : c.size_;
    const std::size_t pages =
        track_len / vmem::ProtectionManager::host_page_size();
    c.slot_pages_pending_.assign(nslots,
                                 std::vector<std::uint8_t>(pages, 1));
  } else if (c.mode_ == vmem::TrackMode::kWriteLog) {
    c.slot_ranges_pending_.assign(
        nslots, std::vector<vmem::DirtyRange>{{0, c.size_}});
  }
}

void ChunkAllocator::reset_pending_slot(Chunk& c, std::uint32_t slot) {
  if (c.mode_ == vmem::TrackMode::kMprotectPage) {
    auto& pages = c.slot_pages_pending_[slot];
    std::fill(pages.begin(), pages.end(), 1);
  } else if (c.mode_ == vmem::TrackMode::kWriteLog) {
    c.slot_ranges_pending_[slot] = {{0, c.size_}};
  }
}

Chunk* ChunkAllocator::nvrealloc(std::uint64_t id, std::size_t new_size) {
  std::unique_lock lock(mu_);
  Chunk* c = nullptr;
  for (const auto& ch : chunks_) {
    if (ch->id() == id) {
      c = ch.get();
      break;
    }
  }
  if (!c) throw NvmcpError("nvrealloc: unknown chunk");
  if (new_size == 0) throw NvmcpError("nvrealloc: zero size");
  if (new_size == c->size_) return c;

  vmem::ChunkRecord& rec = *c->record_;
  auto& dev = container_->device();

  if (dir_) {
    // Ring mode: older retained epochs have the old size and cannot carry
    // over; keep only the committed payload prefix, re-ring at the new
    // size, and republish it as the sole retained epoch.
    std::vector<std::byte> tmp;
    std::uint64_t keep_epoch = 0;
    const bool had_committed = rec.has_committed();
    if (had_committed) {
      const std::size_t keep = std::min<std::size_t>(rec.size, new_size);
      tmp.assign(new_size, std::byte{0});
      dev.read(rec.slot_off[rec.committed], tmp.data(), keep);
      keep_epoch = rec.epoch[rec.committed];
    }
    dir_->drop_ring(id);
    rec.slot_off[0] = 0;
    rec.slot_off[1] = 0;
    rec.size = new_size;
    rec.committed = vmem::ChunkRecord::kNoneCommitted;
    c->ring_ = dir_->ensure_ring(id, new_size, opts_.quota);
    c->ring_slot_ = Chunk::kNoRingSlot;
    c->ring_slot_off_ = 0;
    if (had_committed) {
      const auto acq = c->ring_->acquire_for_commit();
      std::uint64_t sum = crc64_init();
      dev.write(acq.off, tmp.data(), new_size, nullptr, &sum);
      dev.flush(acq.off, new_size);
      const std::uint64_t crc = crc64_final(sum);
      c->ring_->publish(acq.index, keep_epoch, crc);
      rec.slot_off[0] = acq.off;
      rec.checksum[0] = crc;
      rec.epoch[0] = keep_epoch;
      rec.committed = 0;
    }
    container_->metadata().persist_record(rec);
  } else {
    // New version slots; preserve the committed payload prefix. The quota
    // is charged for the new pair before the old pair is credited, so the
    // transient double-hold is enforced too (it is real device usage).
    if (opts_.quota) opts_.quota->charge(2 * new_size);
    const std::size_t new_slots[2] = {container_->alloc_region(new_size),
                                      container_->alloc_region(new_size)};
    std::uint32_t new_committed = vmem::ChunkRecord::kNoneCommitted;
    std::uint64_t new_checksum = 0;
    std::uint64_t new_epoch = 0;
    if (rec.has_committed()) {
      const std::size_t keep = std::min<std::size_t>(rec.size, new_size);
      std::vector<std::byte> tmp(new_size, std::byte{0});
      dev.read(rec.slot_off[rec.committed], tmp.data(), keep);
      std::uint64_t sum = crc64_init();
      dev.write(new_slots[0], tmp.data(), new_size, nullptr, &sum);
      dev.flush(new_slots[0], new_size);
      new_committed = 0;
      new_checksum = crc64_final(sum);
      new_epoch = rec.epoch[rec.committed];
    }
    container_->free_region(rec.slot_off[0], rec.size);
    container_->free_region(rec.slot_off[1], rec.size);
    if (opts_.quota) opts_.quota->credit(2 * rec.size);
    rec.slot_off[0] = new_slots[0];
    rec.slot_off[1] = new_slots[1];
    rec.size = new_size;
    rec.committed = new_committed;
    rec.checksum[0] = new_checksum;
    rec.epoch[0] = new_epoch;
    container_->metadata().persist_record(rec);
  }

  // Grow the DRAM working buffer, preserving contents.
  if (c->owns_dram_) {
    const std::size_t new_cap =
        round_up(new_size, vmem::ProtectionManager::host_page_size());
    std::byte* fresh = map_dram(new_cap);
    std::memcpy(fresh, c->dram_, std::min(c->size_, new_size));
    vmem::ProtectionManager::instance().unregister_range(c->prot_handle_);
    ::munmap(c->dram_, c->dram_capacity_);
    c->dram_ = fresh;
    c->dram_capacity_ = new_cap;
    c->prot_handle_ = vmem::ProtectionManager::instance().register_range(
        c->dram_, new_cap, &c->tracker_, c->mode_);
    if (c->mode_ == vmem::TrackMode::kWriteLog) {
      c->log_sink_ =
          vmem::ProtectionManager::instance().log_sink(c->prot_handle_);
    }
  }
  c->size_ = new_size;
  reset_pending_lists(*c);
  c->precopied_epoch_ = 0;
  c->tracker_.mark_dirty();
  return c;
}

void ChunkAllocator::nvdelete(std::uint64_t id) {
  std::unique_lock lock(mu_);
  for (auto it = chunks_.begin(); it != chunks_.end(); ++it) {
    if ((*it)->id() != id) continue;
    release_chunk_locked(**it, /*free_regions=*/true);
    container_->metadata().erase(id);
    chunks_.erase(it);
    return;
  }
  throw NvmcpError("nvdelete: unknown chunk");
}

void ChunkAllocator::release_chunk_locked(Chunk& c, bool free_regions) {
  if (c.prot_handle_ >= 0) {
    vmem::ProtectionManager::instance().unregister_range(c.prot_handle_);
    c.prot_handle_ = -1;
  }
  if (free_regions) {
    if (dir_ && dir_->ring(c.id_)) {
      // The record's slot offsets alias ring slots; dropping the ring is
      // the only free (anything else would double-free those regions).
      dir_->drop_ring(c.id_);
    } else {
      if (c.record_->slot_off[0]) {
        container_->free_region(c.record_->slot_off[0], c.record_->size);
        if (opts_.quota) opts_.quota->credit(c.record_->size);
      }
      if (c.record_->slot_off[1]) {
        container_->free_region(c.record_->slot_off[1], c.record_->size);
        if (opts_.quota) opts_.quota->credit(c.record_->size);
      }
    }
  }
  c.ring_ = nullptr;
  c.ring_slot_ = Chunk::kNoRingSlot;
  if (c.owns_dram_ && c.dram_) {
    ::munmap(c.dram_, c.dram_capacity_);
    c.dram_ = nullptr;
  }
}

Chunk* ChunkAllocator::find(std::uint64_t id) {
  std::shared_lock lock(mu_);
  for (const auto& c : chunks_) {
    if (c->id() == id) return c.get();
  }
  return nullptr;
}

std::vector<Chunk*> ChunkAllocator::chunks() const {
  std::shared_lock lock(mu_);
  std::vector<Chunk*> out;
  out.reserve(chunks_.size());
  for (const auto& c : chunks_) out.push_back(c.get());
  return out;
}

void ChunkAllocator::with_live(
    const std::vector<Chunk*>& cs,
    const std::function<void(const std::vector<Chunk*>&)>& fn) const {
  std::shared_lock lock(mu_);
  std::vector<const Chunk*> owned;
  for (const auto& c : chunks_) owned.push_back(c.get());
  std::sort(owned.begin(), owned.end(), std::less<>());
  std::vector<Chunk*> live;
  for (Chunk* c : cs) {
    if (std::binary_search(owned.begin(), owned.end(), c, std::less<>())) {
      live.push_back(c);
    }
  }
  fn(live);
}

AllocStats ChunkAllocator::stats() const {
  std::shared_lock lock(mu_);
  AllocStats s;
  s.chunk_count = chunks_.size();
  for (const auto& c : chunks_) {
    s.total_payload_bytes += c->size();
    if (c->ring_) {
      // Ring slots allocate lazily and the GC trims them back, so count
      // the regions actually held rather than a fixed two per chunk.
      s.nvm_bytes_reserved +=
          c->ring_->allocated_slots() * round_up(c->size(), kNvmPageSize);
    } else {
      s.nvm_bytes_reserved += 2 * round_up(c->size(), kNvmPageSize);
    }
  }
  return s;
}

std::size_t ChunkAllocator::arm_chunks(const std::vector<Chunk*>& cs) {
  std::vector<int> handles;
  handles.reserve(cs.size());
  for (Chunk* c : cs) {
    // Snapshot BEFORE arming: precopy_chunk(skip_arm=true) re-arms a chunk
    // iff the count moved since, i.e. a fault or notify may have disarmed
    // it before its own dirty-flag dance (only sound on an armed range).
    c->batch_armed_events_ = c->tracker_.write_events();
    if (c->prot_handle_ >= 0) handles.push_back(c->prot_handle_);
  }
  return vmem::ProtectionManager::instance().protect_batch(handles);
}

double ChunkAllocator::precopy_chunk(Chunk& c, std::uint64_t epoch,
                                     BandwidthLimiter* stream,
                                     bool skip_arm) {
  // Snapshot the tracker's event count, arm tracking, clear the dirty
  // flag, then verify no event raced the clear: faults, notifies and log
  // appends bump the count *before* the dirty flags, so an unchanged count
  // proves the cleared flag was not re-set. Snapshotting before the arm
  // means an event in between cannot be absorbed (leaving the chunk clean
  // and disarmed). A later store hits an armed range and re-marks the
  // chunk, so the possibly-torn slot is never committed.
  const std::uint64_t f0 = c.tracker_.write_events();
  if (c.prot_handle_ >= 0 && (!skip_arm || f0 != c.batch_armed_events_)) {
    // With skip_arm, an event since the batch arm may have disarmed this
    // chunk: re-arm it so the dance below is race-safe again.
    vmem::ProtectionManager::instance().protect(c.prot_handle_);
  }
  c.tracker_.dirty_local.store(false, std::memory_order_release);
  if (c.tracker_.write_events() != f0) {
    c.tracker_.dirty_local.store(true, std::memory_order_release);
  }

  // The checksum is fused into the copy (one pass over the payload
  // instead of a CRC pass followed by a copy pass) and is computed from
  // the DESTINATION bytes, so (checksum, slot) is internally consistent
  // by construction even when stores race the copy: the committed slot
  // always verifies, and the racing store merely re-marks the chunk dirty
  // via the fault counter above so its value lands next epoch. (The old
  // CRC-then-copy order had a tear window between the two passes.)
  auto& dev = container_->device();
  const vmem::ChunkRecord& rec = *c.record_;
  std::uint32_t slot;
  std::uint64_t dst_off;
  if (c.ring_) {
    if (c.ring_slot_ == Chunk::kNoRingSlot) {
      const auto acq = c.ring_->acquire_for_commit();
      c.ring_slot_ = acq.index;
      c.ring_slot_off_ = acq.off;
      if (acq.fresh) {
        reset_pending_slot(c, acq.index);
      } else if (acq.had_committed &&
                 (c.mode_ == vmem::TrackMode::kMprotectPage ||
                  c.mode_ == vmem::TrackMode::kWriteLog)) {
        // Reusing a slot that still holds an older committed epoch: the
        // incremental paths below fold the slot's clean bytes into the
        // new checksum, which would launder any in-place corruption of
        // those bytes into a committed-consistent state. Verify the slot
        // against the checksum it was committed with and downgrade to a
        // whole-chunk copy if it no longer matches.
        std::uint64_t vsum = crc64_init();
        vsum = crc64_update(vsum, dev.data() + acq.off, c.size_);
        if (crc64_final(vsum) != acq.prev_checksum) {
          dir_->note_slot_corruption();
          reset_pending_slot(c, acq.index);
        }
      }
    }
    slot = c.ring_slot_;
    dst_off = c.ring_slot_off_;
  } else {
    slot = rec.in_progress_slot();
    dst_off = rec.slot_off[slot];
  }
  std::uint64_t sum = crc64_init();
  double secs;
  if (c.mode_ == vmem::TrackMode::kMprotectPage) {
    secs = copy_dirty_pages_locked(c, slot, dst_off, stream, &sum);
  } else if (c.mode_ == vmem::TrackMode::kWriteLog) {
    secs = copy_dirty_ranges_locked(c, slot, dst_off, stream, &sum);
  } else {
    secs = dev.write(dst_off, c.dram_, c.size_, stream, &sum);
  }
  dev.flush(dst_off, c.size_);
  c.pending_checksum_ = crc64_final(sum);
  c.precopied_epoch_ = epoch;
  // Codec probe, fused into the copy pass like the CRC: a strided sample
  // of the payload just copied feeds the remote helper's codec tuner. The
  // budget caps the probe at ~16 KiB regardless of chunk size, so this
  // costs microseconds against a device copy.
  c.entropy_millibits_.store(
      static_cast<std::uint32_t>(
          compress::entropy_probe(c.dram_, c.size_) * 1000.0),
      std::memory_order_relaxed);
  return secs;
}

double ChunkAllocator::copy_dirty_pages_locked(Chunk& c, std::uint32_t slot,
                                               std::uint64_t dst_off,
                                               BandwidthLimiter* stream,
                                               std::uint64_t* crc_state) {
  auto& prot = vmem::ProtectionManager::instance();
  auto& dev = container_->device();
  const std::size_t page = vmem::ProtectionManager::host_page_size();

  // Pages dirtied since the last collection become pending for EVERY
  // slot: each slot independently needs the new contents before the next
  // commit into it is complete.
  for (const std::size_t p : prot.collect_dirty_pages(c.prot_handle_)) {
    for (auto& pages : c.slot_pages_pending_) pages[p] = 1;
  }

  // Walk the payload in offset order, alternating runs of pending and
  // clean pages: pending runs are written (CRC fused into the copy),
  // clean runs only feed the CRC — the whole-chunk checksum covers every
  // byte while only dirty pages move.
  auto& pending = c.slot_pages_pending_[slot];
  double secs = 0;
  std::size_t p = 0;
  while (p < pending.size()) {
    const bool run_pending = pending[p] != 0;
    std::size_t q = p;
    while (q < pending.size() && (pending[q] != 0) == run_pending) ++q;
    const std::size_t off = p * page;
    if (off < c.size_) {
      const std::size_t len = std::min(q * page, c.size_) - off;
      if (run_pending) {
        secs += dev.write(dst_off + off, c.dram_ + off, len, stream,
                          crc_state);
      } else if (crc_state) {
        // Clean runs feed the CRC from the slot's own bytes, not from
        // DRAM: a store racing this walk could change DRAM after the run
        // was classified clean, and the checksum must describe the slot
        // content the commit will publish.
        *crc_state =
            crc64_update(*crc_state, dev.data() + dst_off + off, len);
      }
    }
    if (run_pending) {
      for (std::size_t i = p; i < q; ++i) pending[i] = 0;
    }
    p = q;
  }
  return secs;
}

double ChunkAllocator::copy_dirty_ranges_locked(Chunk& c, std::uint32_t slot,
                                                std::uint64_t dst_off,
                                                BandwidthLimiter* stream,
                                                std::uint64_t* crc_state) {
  auto& prot = vmem::ProtectionManager::instance();
  auto& dev = container_->device();

  // Ranges logged since the last collection become pending for EVERY
  // slot: each slot independently needs the new contents before the next
  // commit into it is complete (same invariant as the page-level path).
  auto collected = prot.collect_dirty_ranges(c.prot_handle_);
  if (collected.whole) {
    for (auto& ranges : c.slot_ranges_pending_) ranges = {{0, c.size_}};
  } else {
    for (const vmem::DirtyRange& r : collected.ranges) {
      if (r.off >= c.size_ || r.len == 0) continue;
      const std::uint64_t len = std::min<std::uint64_t>(r.len,
                                                        c.size_ - r.off);
      for (auto& ranges : c.slot_ranges_pending_) {
        ranges.push_back({r.off, len});
      }
    }
  }

  auto& pending = c.slot_ranges_pending_[slot];
  vmem::merge_dirty_ranges(pending, log_merge_gap_);

  std::uint64_t covered = 0;
  for (const vmem::DirtyRange& r : pending) covered += r.len;
  if (covered >= static_cast<std::uint64_t>(
                     log_max_coverage_ * static_cast<double>(c.size_)) &&
      covered > 0) {
    // Dense enough that one sequential whole-chunk write beats many small
    // ones (and the CRC pass is paid either way).
    pending.clear();
    return dev.write(dst_off, c.dram_, c.size_, stream, crc_state);
  }

  // Walk the payload in offset order, alternating logged dirty ranges
  // (written, CRC fused) and clean gaps (CRC fed from the slot's own
  // bytes -- the checksum must describe what the commit will publish).
  double secs = 0;
  std::uint64_t pos = 0;
  for (const vmem::DirtyRange& r : pending) {
    if (crc_state && r.off > pos) {
      *crc_state = crc64_update(*crc_state, dev.data() + dst_off + pos,
                                r.off - pos);
    }
    secs += dev.write(dst_off + r.off, c.dram_ + r.off, r.len, stream,
                      crc_state);
    pos = r.end();
  }
  if (crc_state && pos < c.size_) {
    *crc_state = crc64_update(*crc_state, dev.data() + dst_off + pos,
                              c.size_ - pos);
  }
  pending.clear();
  return secs;
}

void ChunkAllocator::commit_chunk(Chunk& c, std::uint64_t epoch) {
  if (c.precopied_epoch_ != epoch) {
    throw NvmcpError("commit_chunk: in-progress slot does not hold epoch " +
                     std::to_string(epoch));
  }
  vmem::ChunkRecord& rec = *c.record_;
  const std::uint32_t slot = rec.in_progress_slot();
  if (c.ring_) {
    if (c.ring_slot_ == Chunk::kNoRingSlot) {
      throw NvmcpError("commit_chunk: no acquired ring slot");
    }
    // Publish in the ring first (older epochs stay addressable either
    // way), then alias the record's in-progress slot to the ring slot and
    // flip: the record remains the authority on the newest version, with
    // the same persist-then-flip crash ordering as the two-slot scheme.
    c.ring_->publish(c.ring_slot_, epoch, c.pending_checksum_);
    rec.slot_off[slot] = c.ring_slot_off_;
    c.ring_slot_ = Chunk::kNoRingSlot;
    c.ring_slot_off_ = 0;
  }
  rec.checksum[slot] = c.pending_checksum_;
  rec.epoch[slot] = epoch;
  // Persist payload metadata before the commit flip (crash ordering).
  container_->metadata().persist_record(rec);
  rec.committed = slot;
  container_->metadata().persist_record(rec);
  c.precopied_epoch_ = 0;
}

double ChunkAllocator::checkpoint_chunk(Chunk& c, std::uint64_t epoch,
                                        BandwidthLimiter* stream,
                                        bool skip_arm) {
  const double secs = precopy_chunk(c, epoch, stream, skip_arm);
  commit_chunk(c, epoch);
  return secs;
}

RestoreStatus ChunkAllocator::restore_chunk(Chunk& c) {
  const vmem::ChunkRecord& rec = *c.record_;
  if (!rec.has_committed()) return RestoreStatus::kNoData;
  auto& dev = container_->device();
  std::uint64_t sum = crc64_init();
  dev.read(rec.slot_off[rec.committed], c.dram_, c.size_, nullptr,
           opts_.verify_checksums ? &sum : nullptr);
  if (opts_.verify_checksums &&
      crc64_final(sum) != rec.checksum[rec.committed]) {
    return RestoreStatus::kChecksumMismatch;
  }
  c.tracker_.mark_dirty();  // restored data is not yet re-checkpointed
  return RestoreStatus::kOk;
}

bool ChunkAllocator::restore_chunk_lazy(Chunk& c) {
  const vmem::ChunkRecord& rec = *c.record_;
  if (!rec.has_committed() || c.prot_handle_ < 0 ||
      (c.mode_ != vmem::TrackMode::kMprotect &&
       c.mode_ != vmem::TrackMode::kMprotectPage)) {
    return false;
  }
  const std::byte* src =
      container_->device().data() + rec.slot_off[rec.committed];
  vmem::ProtectionManager::instance().arm_lazy_restore(
      c.prot_handle_, src, c.size_, rec.checksum[rec.committed]);
  return true;
}

vmem::ProtectionManager::LazyState ChunkAllocator::lazy_state(
    const Chunk& c) const {
  return vmem::ProtectionManager::instance().lazy_state(c.prot_handle_);
}

bool ChunkAllocator::read_committed(const Chunk& c, void* dst) const {
  const vmem::ChunkRecord& rec = *c.record_;
  if (!rec.has_committed()) return false;
  std::uint64_t sum = crc64_init();
  container_->device().read(rec.slot_off[rec.committed], dst, rec.size,
                            nullptr,
                            opts_.verify_checksums ? &sum : nullptr);
  if (opts_.verify_checksums &&
      crc64_final(sum) != rec.checksum[rec.committed]) {
    return false;
  }
  return true;
}

RestoreStatus ChunkAllocator::restore_chunk_epoch(Chunk& c,
                                                  std::uint64_t epoch) {
  const vmem::ChunkRecord& rec = *c.record_;
  if (epoch == 0 ||
      (rec.has_committed() && rec.epoch[rec.committed] == epoch)) {
    return restore_chunk(c);
  }
  if (!c.ring_) return RestoreStatus::kNoData;
  // Pin before the lookup: a slot found and then read without a pin could
  // be reclaimed by the GC or reused by a racing commit mid-read.
  c.ring_->pin_epoch(epoch);
  epoch::RingSlot s;
  if (!c.ring_->find_epoch(epoch, &s)) {
    c.ring_->unpin_epoch(epoch);
    return RestoreStatus::kNoData;
  }
  auto& dev = container_->device();
  std::uint64_t sum = crc64_init();
  dev.read(s.off, c.dram_, c.size_, nullptr,
           opts_.verify_checksums ? &sum : nullptr);
  c.ring_->unpin_epoch(epoch);
  if (opts_.verify_checksums && crc64_final(sum) != s.checksum) {
    return RestoreStatus::kChecksumMismatch;
  }
  c.tracker_.mark_dirty();  // restored data is not yet re-checkpointed
  return RestoreStatus::kOkStale;
}

std::vector<std::uint64_t> ChunkAllocator::retained_epochs(
    const Chunk& c) const {
  std::vector<std::uint64_t> out;
  const vmem::ChunkRecord& rec = *c.record_;
  const std::uint64_t newest =
      rec.has_committed() ? rec.epoch[rec.committed] : 0;
  if (newest) out.push_back(newest);
  if (c.ring_) {
    // Ring epochs arrive newest-first; anything >= the record's committed
    // epoch is either the aliased newest slot or a commit that crashed
    // between ring publish and record flip, which the record (the newest-
    // version authority) never acknowledged.
    for (const std::uint64_t e : c.ring_->retained_epochs()) {
      if (e < newest) out.push_back(e);
    }
  }
  return out;
}

bool ChunkAllocator::read_retained(Chunk& c, std::uint64_t epoch,
                                   void* dst) {
  const vmem::ChunkRecord& rec = *c.record_;
  if (epoch == 0 ||
      (rec.has_committed() && rec.epoch[rec.committed] == epoch)) {
    return read_committed(c, dst);
  }
  if (!c.ring_) return false;
  // Pin across the read: GC or a racing commit could otherwise reclaim
  // the slot mid-copy (same discipline as restore_chunk_epoch).
  c.ring_->pin_epoch(epoch);
  epoch::RingSlot s;
  if (!c.ring_->find_epoch(epoch, &s)) {
    c.ring_->unpin_epoch(epoch);
    return false;
  }
  std::uint64_t sum = crc64_init();
  container_->device().read(s.off, dst, rec.size, nullptr,
                            opts_.verify_checksums ? &sum : nullptr);
  c.ring_->unpin_epoch(epoch);
  return !opts_.verify_checksums || crc64_final(sum) == s.checksum;
}

void ChunkAllocator::pin_epoch(Chunk& c, std::uint64_t epoch) {
  if (c.ring_ && epoch) c.ring_->pin_epoch(epoch);
}

void ChunkAllocator::unpin_epoch(Chunk& c, std::uint64_t epoch) {
  if (c.ring_ && epoch) c.ring_->unpin_epoch(epoch);
}

}  // namespace nvmcp::alloc
