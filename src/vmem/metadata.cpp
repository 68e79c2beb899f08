#include "vmem/metadata.hpp"

#include <cstring>

#include "common/error.hpp"

namespace nvmcp::vmem {

MetadataRegion::MetadataRegion(NvmDevice& dev, std::size_t region_off)
    : dev_(&dev), region_off_(region_off) {}

std::size_t MetadataRegion::bytes_required(std::size_t capacity) {
  return round_up(sizeof(MetadataHeader) + capacity * sizeof(ChunkRecord),
                  kNvmPageSize);
}

MetadataRegion MetadataRegion::create(NvmDevice& dev, std::size_t region_off,
                                      std::size_t capacity) {
  if (capacity == 0) throw NvmcpError("MetadataRegion: zero capacity");
  MetadataRegion region(dev, region_off);
  const std::size_t bytes = bytes_required(capacity);
  std::memset(dev.data() + region_off, 0, bytes);
  auto& hdr = region.header();
  hdr.magic = kMagic;
  hdr.capacity = capacity;
  hdr.alloc_cursor = round_up(region_off + bytes, kNvmPageSize);
  dev.mark_written_inplace(region_off, bytes);
  dev.flush(region_off, bytes);
  dev.set_root(region_off);
  return region;
}

MetadataRegion MetadataRegion::attach(NvmDevice& dev) {
  const std::uint64_t root = dev.root();
  if (root == 0) {
    throw NvmcpError("MetadataRegion: device has no metadata root");
  }
  MetadataRegion region(dev, root);
  if (region.header().magic != kMagic) {
    throw NvmcpError(
        "MetadataRegion: bad magic at root offset (not a metadata region, "
        "or an image of an earlier record layout); it cannot be reopened");
  }
  return region;
}

MetadataHeader& MetadataRegion::header() {
  return *reinterpret_cast<MetadataHeader*>(dev_->data() + region_off_);
}

const MetadataHeader& MetadataRegion::header() const {
  return *reinterpret_cast<const MetadataHeader*>(dev_->data() + region_off_);
}

void MetadataRegion::persist_header() {
  dev_->mark_written_inplace(region_off_, sizeof(MetadataHeader));
  dev_->flush(region_off_, sizeof(MetadataHeader));
}

ChunkRecord* MetadataRegion::records() {
  return reinterpret_cast<ChunkRecord*>(dev_->data() + region_off_ +
                                        sizeof(MetadataHeader));
}

const ChunkRecord* MetadataRegion::records() const {
  return reinterpret_cast<const ChunkRecord*>(dev_->data() + region_off_ +
                                              sizeof(MetadataHeader));
}

std::size_t MetadataRegion::capacity() const { return header().capacity; }

std::size_t MetadataRegion::record_count() const {
  std::size_t n = 0;
  for_each([&n](const ChunkRecord&) { ++n; });
  return n;
}

ChunkRecord* MetadataRegion::find(std::uint64_t id) {
  auto* recs = records();
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (recs[i].valid() && recs[i].id == id) return &recs[i];
  }
  return nullptr;
}

const ChunkRecord* MetadataRegion::find(std::uint64_t id) const {
  return const_cast<MetadataRegion*>(this)->find(id);
}

ChunkRecord* MetadataRegion::insert(std::uint64_t id, std::string_view name) {
  if (find(id)) {
    throw NvmcpError("MetadataRegion: duplicate chunk id " +
                     std::to_string(id));
  }
  auto* recs = records();
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (recs[i].valid()) continue;
    ChunkRecord fresh{};
    fresh.id = id;
    fresh.flags = ChunkRecord::kValid;
    // An unnamed chunk's view may have a null data(); memcpy forbids that
    // even for zero bytes.
    if (!name.empty()) {
      const std::size_t copy = std::min(name.size(), sizeof(fresh.name) - 1);
      std::memcpy(fresh.name, name.data(), copy);
    }
    recs[i] = fresh;
    persist_record(recs[i]);
    return &recs[i];
  }
  throw NvmcpError("MetadataRegion: chunk table full");
}

void MetadataRegion::erase(std::uint64_t id) {
  if (ChunkRecord* rec = find(id)) {
    rec->flags = 0;
    persist_record(*rec);
  }
}

void MetadataRegion::persist_record(const ChunkRecord& rec) {
  persist(&rec, sizeof(ChunkRecord));
}

void MetadataRegion::persist(const void* p, std::size_t n) {
  const auto off = static_cast<std::size_t>(
      static_cast<const std::byte*>(p) - dev_->data());
  dev_->mark_written_inplace(off, n);
  dev_->flush(off, n);
}

}  // namespace nvmcp::vmem
