// Per-process NVM container: the user-space analog of the paper's NVM
// kernel manager address-space support ('nvmmap').
//
// A container owns the layout of one device arena: a metadata region at the
// front and page-aligned data regions allocated behind it. The allocation
// cursor persists in the metadata header, so a reopened device exposes the
// same regions; chunk records then let the allocator re-attach each chunk,
// and the regions no record names are the free list again.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "nvm/device.hpp"
#include "vmem/metadata.hpp"

namespace nvmcp::vmem {

class Container {
 public:
  struct Options {
    std::size_t chunk_table_capacity = 1024;
  };

  /// Create a fresh container, or attach to the existing one if the device
  /// was reopened with a valid metadata root.
  explicit Container(NvmDevice& dev);
  Container(NvmDevice& dev, Options opts);

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  /// True if this container re-attached to previously persisted state.
  bool attached_existing() const { return attached_; }

  NvmDevice& device() { return *dev_; }
  MetadataRegion& metadata() { return meta_; }
  const MetadataRegion& metadata() const { return meta_; }

  /// Allocate a page-aligned region of at least `bytes`; returns its device
  /// offset. Freed regions are reused (first fit). Throws on exhaustion.
  std::size_t alloc_region(std::size_t bytes);

  /// Return a region to the free list. The list lives in DRAM only: an
  /// attach rebuilds it as every region below the cursor that no valid
  /// chunk record's slot names.
  void free_region(std::size_t off, std::size_t bytes);

  std::size_t bytes_allocated() const;
  std::size_t bytes_free() const;

 private:
  struct FreeBlock {
    std::size_t off;
    std::size_t bytes;
  };

  void rebuild_free_list();

  NvmDevice* dev_;
  // Written through a pointer while meta_ is initialized, so it must be
  // declared (and thus initialized) before meta_.
  bool attached_ = false;
  MetadataRegion meta_;

  mutable std::mutex mu_;
  std::vector<FreeBlock> free_list_;
};

}  // namespace nvmcp::vmem
