#include "vmem/container.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace nvmcp::vmem {
namespace {

MetadataRegion open_or_create(NvmDevice& dev, std::size_t table_capacity,
                              bool* attached) {
  if (dev.reopened() && dev.root() != 0) {
    *attached = true;
    return MetadataRegion::attach(dev);
  }
  *attached = false;
  // Offset 0 is reserved: a device root of 0 means "no metadata", so the
  // region lives one page into the arena.
  return MetadataRegion::create(dev, /*region_off=*/kNvmPageSize,
                                table_capacity);
}

}  // namespace

Container::Container(NvmDevice& dev) : Container(dev, Options{}) {}

Container::Container(NvmDevice& dev, Options opts)
    : dev_(&dev),
      meta_(open_or_create(dev, opts.chunk_table_capacity, &attached_)) {
  if (attached_) rebuild_free_list();
  // Re-baseline the device's occupancy accounting: the reserved span is
  // the cursor (header page + metadata + data regions) less the free list.
  // Done as a delta so a re-attached container doesn't double-count.
  dev.note_reserved(static_cast<std::int64_t>(bytes_allocated()) -
                    static_cast<std::int64_t>(dev.reserved_bytes()));
  log_info("Container: %s, cursor=%zu",
           attached_ ? "attached to existing metadata" : "created fresh",
           static_cast<std::size_t>(meta_.header().alloc_cursor));
}

void Container::rebuild_free_list() {
  // Every region below the cursor was allocated for a ring slot, and all
  // slots of a record are round_up(size) bytes, the one size VersionRing
  // allocates and frees. Bytes of the data area that no valid record's
  // slot names were freed (GC, ring shed, resize, nvdelete) or allocated
  // but never recorded before a crash: they are the free list. Clamping
  // to the cursor keeps a damaged record from freeing past it.
  std::vector<FreeBlock> owned;
  meta_.for_each([&owned](const ChunkRecord& rec) {
    const std::size_t bytes = round_up(rec.size, kNvmPageSize);
    for (const std::uint64_t off : rec.slot_off) {
      if (off != 0) owned.push_back({off, bytes});
    }
  });
  std::sort(owned.begin(), owned.end(),
            [](const FreeBlock& a, const FreeBlock& b) {
              return a.off < b.off;
            });
  const std::size_t cursor = meta_.header().alloc_cursor;
  // The data area starts where MetadataRegion::create put the cursor.
  std::size_t pos = meta_.region_offset() +
                    MetadataRegion::bytes_required(meta_.capacity());
  for (const FreeBlock& r : owned) {
    const std::size_t begin = std::min(r.off, cursor);
    if (begin > pos) free_list_.push_back({pos, begin - pos});
    pos = std::max(pos, begin + std::min(r.bytes, cursor - begin));
  }
  if (pos < cursor) free_list_.push_back({pos, cursor - pos});
}

std::size_t Container::alloc_region(std::size_t bytes) {
  const std::size_t need = round_up(bytes, kNvmPageSize);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->bytes >= need) {
      const std::size_t off = it->off;
      if (it->bytes > need) {
        it->off += need;
        it->bytes -= need;
      } else {
        free_list_.erase(it);
      }
      dev_->note_reserved(static_cast<std::int64_t>(need));
      return off;
    }
  }
  auto& hdr = meta_.header();
  const std::size_t off = hdr.alloc_cursor;
  if (off + need > dev_->capacity()) {
    throw NvmcpError("Container: NVM exhausted (need " +
                     std::to_string(need) + " bytes, free " +
                     std::to_string(dev_->capacity() - off) + ")");
  }
  hdr.alloc_cursor = off + need;
  meta_.persist_header();
  dev_->note_reserved(static_cast<std::int64_t>(need));
  return off;
}

void Container::free_region(std::size_t off, std::size_t bytes) {
  const std::size_t need = round_up(bytes, kNvmPageSize);
  std::lock_guard<std::mutex> lock(mu_);
  free_list_.push_back({off, need});
  dev_->note_reserved(-static_cast<std::int64_t>(need));
}

std::size_t Container::bytes_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t free_bytes = 0;
  for (const auto& b : free_list_) free_bytes += b.bytes;
  return meta_.header().alloc_cursor - free_bytes;
}

std::size_t Container::bytes_free() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t free_bytes = 0;
  for (const auto& b : free_list_) free_bytes += b.bytes;
  return dev_->capacity() - meta_.header().alloc_cursor + free_bytes;
}

}  // namespace nvmcp::vmem
