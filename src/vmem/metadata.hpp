// Persistent per-process metadata region, stored inside the NVM device.
//
// The paper's kernel manager "maintains a metadata structure for each
// process that keeps track of all NVM pages used by a process. During
// application restart, the information in the metadata structure ... is
// used to load the persistent pages to the process address space."
//
// We store a fixed-capacity table of chunk records plus an allocation
// cursor. A chunk record is the one persisted description of a chunk's
// versions: its payload slots, each slot's epoch, CRC and length, and
// `committed`, the index of the acknowledged slot. A commit copies into a
// slot that is not acknowledged, flushes it, publishes the slot's epoch,
// CRC and length, and only then stores `committed` -- one aligned 8-byte
// word, the commit point -- so a crash at any step leaves the previous
// acknowledged version intact (epoch::VersionRing owns that ordering). A
// buddy store's in-progress slot may also hold a staged frame's fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "nvm/device.hpp"

namespace nvmcp::vmem {

/// Slots per chunk record: the deepest version ring (8 retained epochs)
/// plus the copy in flight.
constexpr std::uint32_t kMaxRingSlots = 9;
/// No slot: a record's `committed` before its first acknowledged commit.
constexpr std::uint32_t kInvalidSlot = ~0u;

/// On-NVM chunk record (POD; lives in the metadata table).
struct ChunkRecord {
  static constexpr std::uint32_t kValid = 1u << 0;
  // Slot states.
  static constexpr std::uint32_t kSlotFree = 0;
  static constexpr std::uint32_t kSlotInProgress = 1;  // copy target
  static constexpr std::uint32_t kSlotPublished = 2;   // epoch, CRC, len

  std::uint64_t id = 0;    // genid(varname)
  std::uint64_t size = 0;  // payload bytes of every slot
  std::uint64_t slot_off[kMaxRingSlots] = {};  // device offset, 0 = none
  // Of a published slot, or of a frame staged in an in-progress one.
  std::uint64_t checksum[kMaxRingSlots] = {};  // crc64 of its len bytes
  std::uint64_t epoch[kMaxRingSlots] = {};
  std::uint64_t len[kMaxRingSlots] = {};       // bytes held, <= size
  std::uint32_t state[kMaxRingSlots] = {};
  std::uint32_t committed = kInvalidSlot;  // acknowledged slot
  std::uint32_t flags = 0;
  char name[44] = {};

  bool valid() const { return flags & kValid; }
  bool has_committed() const { return committed != kInvalidSlot; }
};

static_assert(sizeof(ChunkRecord) == 392, "ChunkRecord layout is persistent");
static_assert(offsetof(ChunkRecord, committed) % 8 + sizeof(std::uint32_t) <=
                  8,
              "the commit point must not straddle an 8-byte atom");

struct MetadataHeader {
  std::uint64_t magic = 0;
  std::uint64_t capacity = 0;     // record slots
  std::uint64_t alloc_cursor = 0; // bump pointer for region allocation
};

/// View over the metadata region of one device. The region's device offset
/// is recorded in the device header root, so a reopened device finds its
/// metadata automatically.
class MetadataRegion {
 public:
  /// "nvmmeta3": one record per chunk, with a length per slot. Images of
  /// the earlier layouts ("nvmmeta2", without slot lengths; "nvmmeta1",
  /// whose versions also lived in a separate ring table) are refused at
  /// attach, never migrated.
  static constexpr std::uint64_t kMagic = 0x6e766d6d65746133ULL;

  /// Create a fresh region at `region_off` with space for `capacity`
  /// records, and point the device root at it.
  static MetadataRegion create(NvmDevice& dev, std::size_t region_off,
                               std::size_t capacity);

  /// Attach to the region named by the device root. Throws, writing
  /// nothing, if it is absent or carries another magic.
  static MetadataRegion attach(NvmDevice& dev);

  static std::size_t bytes_required(std::size_t capacity);

  std::size_t capacity() const;
  std::size_t record_count() const;  // valid records

  /// Find a record by chunk id; nullptr if absent. The pointer aliases NVM
  /// and stays valid for the life of the device.
  ChunkRecord* find(std::uint64_t id);
  const ChunkRecord* find(std::uint64_t id) const;

  /// Allocate (or reuse a previously-freed) record slot for `id`.
  ChunkRecord* insert(std::uint64_t id, std::string_view name);

  /// Invalidate a record (nvdelete).
  void erase(std::uint64_t id);

  /// Persist one record (flush its cache lines).
  void persist_record(const ChunkRecord& rec);
  /// Persist `n` bytes at `p`, which points into the region.
  void persist(const void* p, std::size_t n);

  MetadataHeader& header();
  const MetadataHeader& header() const;
  void persist_header();

  /// Enumerate valid records.
  template <typename Fn>
  void for_each(Fn&& fn) {
    auto* recs = records();
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (recs[i].valid()) fn(recs[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const auto* recs = records();
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (recs[i].valid()) fn(recs[i]);
    }
  }

  std::size_t region_offset() const { return region_off_; }

 private:
  MetadataRegion(NvmDevice& dev, std::size_t region_off);

  ChunkRecord* records();
  const ChunkRecord* records() const;

  NvmDevice* dev_;
  std::size_t region_off_;
};

}  // namespace nvmcp::vmem
