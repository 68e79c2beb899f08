#include "alloc/chunk.hpp"

#include "epoch/version_ring.hpp"

namespace nvmcp::alloc {

const vmem::ChunkRecord& Chunk::record() const { return ring_->record(); }

void Chunk::notify_write() {
  if (prot_handle_ >= 0) {
    vmem::ProtectionManager::instance().notify_write(prot_handle_);
  }
}

}  // namespace nvmcp::alloc
