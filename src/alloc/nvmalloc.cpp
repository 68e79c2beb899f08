#include "alloc/nvmalloc.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/checksum.hpp"
#include "common/log.hpp"

namespace nvmcp::alloc {
namespace {

std::byte* map_dram(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw NvmcpError("nvalloc: mmap DRAM buffer failed");
  return static_cast<std::byte*>(p);
}

/// Modes whose tracker hands the copier dirty byte ranges (page runs or
/// logged writes), so commits keep per-slot pending range lists.
bool tracks_ranges(vmem::TrackMode mode) {
  return mode == vmem::TrackMode::kMprotectPage ||
         mode == vmem::TrackMode::kWriteLog;
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
      log_merge_gap_(static_cast<std::uint64_t>(
          std::max(opts.dirty_log_merge_gap, 0L))),
      log_max_coverage_(std::clamp(opts.dirty_log_max_coverage, 0.0, 1.0)),
      ring_depth_(epoch::resolve_ring_depth(opts.ring_depth)) {
  if (opts_.shared_dir) {
    // Arena mode: the directory (and its depth) belongs to the arena; all
    // tenants share the container's one directory.
    dir_ = opts_.shared_dir;
    ring_depth_ = dir_->ring_depth();
  } else {
    owned_dir_ = std::make_unique<epoch::EpochDirectory>(
        container, epoch::EpochDirectory::Options{ring_depth_});
    dir_ = owned_dir_.get();
  }
}

ChunkAllocator::~ChunkAllocator() {
  std::unique_lock lock(mu_);
  // Ring footprints stay charged to their quota: the ring (and its quota
  // pointer) outlives this handle inside the directory.
  for (auto& c : chunks_) release_chunk_locked(*c, /*free_regions=*/false);
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

  // The chunk's record, created on first use. Its slots take their
  // regions (and charge the quota) at the first commit that needs them; a
  // size changed across sessions frees the old ones (that payload cannot
  // be restored).
  epoch::VersionRing* ring = dir_->ensure_ring(id, size, opts_.quota, name);

  auto chunk = std::unique_ptr<Chunk>(new Chunk());
  Chunk& c = *chunk;
  c.id_ = id;
  c.name_ = std::string(name);
  c.size_ = size;
  c.persistent_ = persistent;
  c.ring_ = ring;
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

  const std::size_t track_len = c.owns_dram_ ? c.dram_capacity_ : c.size_;
  c.prot_handle_ = vmem::ProtectionManager::instance().register_range(
      c.dram_, track_len, &c.tracker_, c.mode_);
  // Everything is pending for every slot until the first full copies.
  reset_pending_lists(c);

  if (persistent) c.restore_status_ = restore_chunk(c);  // kNoData: none

  Chunk* out = &c;
  chunks_.push_back(std::move(chunk));
  log_debug("nvalloc: chunk id=%llu size=%zu %s restore=%s",
            static_cast<unsigned long long>(id), size,
            attach_src ? "(attached)" : "",
            to_string(out->restore_status_));
  return out;
}

void ChunkAllocator::reset_pending_lists(Chunk& c) {
  if (!tracks_ranges(c.mode_)) return;
  c.slot_ranges_pending_.assign(c.ring_->slot_budget(),
                                std::vector<DirtyRange>{{0, c.size_}});
}

void ChunkAllocator::reset_pending_slot(Chunk& c, std::uint32_t slot) {
  if (has_pending_list(c, slot)) c.slot_ranges_pending_[slot] = {{0, c.size_}};
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

  auto& dev = container_->device();

  // Older retained epochs have the old size and cannot carry over: keep
  // only the acknowledged payload prefix, re-size the ring (freeing every
  // slot), and republish it as the sole retained epoch.
  std::vector<std::byte> tmp;
  const std::optional<epoch::RingSlot> acked = acknowledged(*c);
  if (acked) {
    tmp.assign(new_size, std::byte{0});
    dev.read(acked->off, tmp.data(), std::min(c->size_, new_size));
  }
  dir_->ensure_ring(id, new_size, opts_.quota);
  c->ring_slot_ = Chunk::kNoRingSlot;
  c->ring_slot_off_ = 0;
  if (acked) {
    const auto acq = c->ring_->acquire_for_commit();
    std::uint64_t sum = crc64_init();
    dev.write(acq.off, tmp.data(), new_size, nullptr, &sum);
    dev.flush(acq.off, new_size);
    c->ring_->publish(acq.index, acked->epoch, crc64_final(sum));
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
  // Dropping the ring frees every region (crediting its quota) and
  // invalidates the record.
  if (free_regions) dir_->drop_ring(c.id_);
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

ChunkAllocator::Copied ChunkAllocator::precopy_chunk(
    Chunk& c, std::uint64_t epoch, BandwidthLimiter* stream, bool skip_arm) {
  // Acquire the slot first: a refused acquisition (every reusable slot
  // pinned, or the quota exhausted) then throws with the dirty flag
  // untouched, so the chunk is retried next round, not skipped as clean.
  // The slot holding the acknowledged version is never the one acquired.
  auto& dev = container_->device();
  // A reused slot that still holds an older committed epoch, with the
  // checksum that epoch was published with: a range copy into it folds
  // its clean bytes and verifies them first (copy_dirty_ranges_locked).
  std::optional<std::uint64_t> published;
  if (c.ring_slot_ == Chunk::kNoRingSlot) {
    const auto acq = c.ring_->acquire_for_commit();
    c.ring_slot_ = acq.index;
    c.ring_slot_off_ = acq.off;
    if (acq.fresh) {
      reset_pending_slot(c, acq.index);
    } else if (acq.had_committed && has_pending_list(c, acq.index)) {
      published = acq.prev_checksum;
    }
  }

  // Snapshot the tracker's event count, arm tracking, clear the dirty
  // flag, then verify no event raced the clear: faults, notifies and log
  // appends bump the count *before* the dirty flag, so an unchanged count
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
  // The clear is a seq_cst read-modify-write, and the recheck's loads,
  // the writers' count bumps and their flag stores are seq_cst too. A
  // release clear followed by acquire loads of the count does not order
  // the two: on x86 the clear can wait in the store buffer while the
  // recheck reads the old count, and a writer's mark that lands in that
  // window is then overwritten, leaving the chunk clean and disarmed.
  c.tracker_.dirty_local.exchange(false, std::memory_order_seq_cst);
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
  const std::uint64_t dst_off = c.ring_slot_off_;
  std::uint64_t sum = crc64_init();
  Copied done;
  if (tracks_ranges(c.mode_)) {
    done = copy_dirty_ranges_locked(c, c.ring_slot_, dst_off, stream,
                                    published, &sum);
  } else {
    done = {dev.write(dst_off, c.dram_, c.size_, stream, &sum), c.size_};
  }
  dev.flush(dst_off, c.size_);
  c.pending_checksum_ = crc64_final(sum);
  c.precopied_epoch_ = epoch;
  return done;
}

ChunkAllocator::Copied ChunkAllocator::copy_dirty_ranges_locked(
    Chunk& c, std::uint32_t slot, std::uint64_t dst_off,
    BandwidthLimiter* stream, std::optional<std::uint64_t> published,
    std::uint64_t* crc_state) {
  auto& dev = container_->device();
  auto whole = [&] {
    return Copied{dev.write(dst_off, c.dram_, c.size_, stream, crc_state),
                  c.size_};
  };

  // Ranges dirtied since the last collection (logged writes, or faulted
  // page runs) become pending for EVERY slot: each slot independently
  // needs the new contents before the next commit into it is complete.
  // A write log is collected from the chunk's own tracker.
  auto collected = c.mode_ == vmem::TrackMode::kWriteLog
                       ? c.tracker_.log.collect()
                       : vmem::ProtectionManager::instance()
                             .collect_dirty_ranges(c.prot_handle_);
  if (collected.whole) {
    for (auto& ranges : c.slot_ranges_pending_) ranges = {{0, c.size_}};
  } else {
    for (const DirtyRange& r : collected.ranges) {
      if (r.off >= c.size_ || r.len == 0) continue;
      const std::uint64_t len = std::min<std::uint64_t>(r.len,
                                                        c.size_ - r.off);
      for (auto& ranges : c.slot_ranges_pending_) {
        ranges.push_back({r.off, len});
      }
    }
  }
  // The all-pinned spill slot past the ring's budget keeps no list.
  if (!has_pending_list(c, slot)) return whole();

  auto& pending = c.slot_ranges_pending_[slot];
  vmem::merge_dirty_ranges(pending, log_merge_gap_);

  std::uint64_t covered = 0;
  for (const DirtyRange& r : pending) covered += r.len;
  if (covered >= static_cast<std::uint64_t>(
                     log_max_coverage_ * static_cast<double>(c.size_)) &&
      covered > 0) {
    // Dense enough to copy the whole chunk: it moves at most 1/coverage
    // times the dirty bytes, folds no slot byte (so needs no scrub), and
    // the CRC pass is paid either way.
    pending.clear();
    return whole();
  }

  // The range copy folds the slot's clean bytes into the new checksum,
  // which would launder any in-place corruption of those bytes into a
  // committed-consistent state. Verify a reused slot against the checksum
  // it was committed with first, and copy the whole chunk if it no longer
  // matches.
  if (published) {
    std::uint64_t vsum = crc64_init();
    vsum = crc64_update(vsum, dev.data() + dst_off, c.size_);
    if (crc64_final(vsum) != *published) {
      dir_->note_slot_corruption();
      pending.clear();
      return whole();
    }
  }

  // One vectored write walks the payload in offset order, copying the
  // dirty ranges and folding the clean gaps into the CRC from the slot's
  // own bytes, not from DRAM: a store racing this walk could change DRAM
  // after the gap was classified clean, and the checksum must describe
  // the slot content the commit will publish.
  const double secs =
      dev.write_ranges(dst_off, c.dram_, c.size_, pending, stream, crc_state);
  pending.clear();
  return {secs, covered};
}

void ChunkAllocator::commit_chunk(Chunk& c, std::uint64_t epoch) {
  if (c.precopied_epoch_ != epoch) {
    throw NvmcpError("commit_chunk: in-progress slot does not hold epoch " +
                     std::to_string(epoch));
  }
  if (c.ring_slot_ == Chunk::kNoRingSlot) {
    throw NvmcpError("commit_chunk: no acquired ring slot");
  }
  c.ring_->publish(c.ring_slot_, epoch, c.pending_checksum_);
  c.ring_slot_ = Chunk::kNoRingSlot;
  c.ring_slot_off_ = 0;
  c.precopied_epoch_ = 0;
}

ChunkAllocator::Copied ChunkAllocator::checkpoint_chunk(
    Chunk& c, std::uint64_t epoch, BandwidthLimiter* stream, bool skip_arm) {
  const Copied done = precopy_chunk(c, epoch, stream, skip_arm);
  commit_chunk(c, epoch);
  return done;
}

RestoreStatus ChunkAllocator::read_slot(const Chunk& c, std::uint64_t epoch,
                                        void* dst,
                                        std::uint64_t* read_epoch) const {
  const std::optional<epoch::RingSlot> acked = acknowledged(c);
  const bool newest = epoch == 0 || (acked && acked->epoch == epoch);
  epoch::RingSlot s;
  if (newest) {
    if (!acked) return RestoreStatus::kNoData;
    s = *acked;
  } else {
    // Pin before the lookup: a slot found and then read without a pin
    // could be reclaimed by the GC or reused by a racing commit mid-read.
    c.ring_->pin_epoch(epoch);
    if (!c.ring_->find_epoch(epoch, &s)) {
      c.ring_->unpin_epoch(epoch);
      return RestoreStatus::kNoData;
    }
  }
  std::uint64_t sum = crc64_init();
  container_->device().read(s.off, dst, c.size_, nullptr,
                            opts_.verify_checksums ? &sum : nullptr);
  if (!newest) c.ring_->unpin_epoch(epoch);
  if (opts_.verify_checksums && crc64_final(sum) != s.checksum) {
    return RestoreStatus::kChecksumMismatch;
  }
  if (read_epoch) *read_epoch = s.epoch;
  return newest ? RestoreStatus::kOk : RestoreStatus::kOkStale;
}

RestoreStatus ChunkAllocator::restore_chunk(Chunk& c, std::uint64_t epoch) {
  const RestoreStatus st = read_slot(c, epoch, c.dram_);
  if (st == RestoreStatus::kOk || st == RestoreStatus::kOkStale) {
    c.tracker_.mark_dirty();  // restored data is not yet re-checkpointed
  }
  return st;
}

bool ChunkAllocator::restore_chunk_lazy(Chunk& c) {
  const std::optional<epoch::RingSlot> acked = acknowledged(c);
  if (!acked || c.prot_handle_ < 0 ||
      (c.mode_ != vmem::TrackMode::kMprotect &&
       c.mode_ != vmem::TrackMode::kMprotectPage)) {
    return false;
  }
  vmem::ProtectionManager::instance().arm_lazy_restore(
      c.prot_handle_, container_->device().data() + acked->off, c.size_,
      acked->checksum);
  return true;
}

vmem::ProtectionManager::LazyState ChunkAllocator::lazy_state(
    const Chunk& c) const {
  return vmem::ProtectionManager::instance().lazy_state(c.prot_handle_);
}

std::optional<epoch::RingSlot> ChunkAllocator::acknowledged(
    const Chunk& c) const {
  return c.ring_->acknowledged();
}

bool ChunkAllocator::read_committed(const Chunk& c, void* dst,
                                    std::uint64_t* epoch) const {
  return read_slot(c, 0, dst, epoch) == RestoreStatus::kOk;
}

std::uint64_t ChunkAllocator::restore_older_epoch(Chunk& c,
                                                  std::uint64_t epoch) {
  const std::vector<std::uint64_t> epochs = retained_epochs(c);
  // With epoch 0 the walk starts below the newest committed version
  // (epochs[0]), the one that just failed verification.
  const std::uint64_t below =
      epoch != 0 ? epoch : (epochs.empty() ? 0 : epochs[0]);
  for (const std::uint64_t e : epochs) {
    if (e >= below) continue;
    const RestoreStatus st = restore_chunk(c, e);
    if (st == RestoreStatus::kOk || st == RestoreStatus::kOkStale) return e;
  }
  return 0;
}

std::vector<std::uint64_t> ChunkAllocator::retained_epochs(
    const Chunk& c) const {
  return c.ring_->retained_epochs();
}

void ChunkAllocator::pin_epoch(Chunk& c, std::uint64_t epoch) {
  if (epoch) c.ring_->pin_epoch(epoch);
}

void ChunkAllocator::unpin_epoch(Chunk& c, std::uint64_t epoch) {
  if (epoch) c.ring_->unpin_epoch(epoch);
}

}  // namespace nvmcp::alloc
