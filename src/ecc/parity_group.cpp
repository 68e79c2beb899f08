#include "ecc/parity_group.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"

namespace nvmcp::ecc {
namespace {

/// Parity shards are addressed as pseudo-ranks above the real ones.
std::uint32_t parity_rank(std::size_t k, int shard) {
  return static_cast<std::uint32_t>(k) + static_cast<std::uint32_t>(shard);
}

}  // namespace

ParityCheckpointGroup::ParityCheckpointGroup(
    std::vector<core::CheckpointManager*> managers, net::RemoteMemory remote,
    int parity_shards)
    : managers_(std::move(managers)),
      remote_(remote),
      rs_(static_cast<int>(managers_.size()), parity_shards) {
  if (managers_.empty()) {
    throw NvmcpError("ParityCheckpointGroup: no managers");
  }
}

std::size_t ParityCheckpointGroup::protect_epoch() {
  const std::size_t k = managers_.size();
  const int m = rs_.parity_shards();
  std::size_t sent = 0;

  for (alloc::Chunk* lead : managers_[0]->allocator().chunks()) {
    if (!lead->persistent() || !lead->record().has_committed()) continue;
    const std::uint64_t id = lead->id();
    const std::size_t len = lead->size();

    // Gather the k committed payloads for this chunk id.
    std::vector<std::vector<std::uint8_t>> data(k);
    std::vector<const std::uint8_t*> data_ptrs(k);
    std::uint64_t epoch_key = 0;
    bool complete = true;
    for (std::size_t r = 0; r < k; ++r) {
      alloc::Chunk* c = managers_[r]->allocator().find(id);
      if (!c || c->size() != len || !c->record().has_committed()) {
        complete = false;
        break;
      }
      data[r].resize(len);
      if (!managers_[r]->allocator().read_committed(*c, data[r].data())) {
        complete = false;
        break;
      }
      data_ptrs[r] = data[r].data();
      epoch_key = std::max(epoch_key,
                           c->record().epoch[c->record().committed]);
    }
    if (!complete) continue;

    std::vector<std::vector<std::uint8_t>> parity(
        static_cast<std::size_t>(m));
    std::vector<std::uint8_t*> parity_ptrs(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      parity[static_cast<std::size_t>(i)].resize(len);
      parity_ptrs[static_cast<std::size_t>(i)] =
          parity[static_cast<std::size_t>(i)].data();
    }
    rs_.encode(data_ptrs, parity_ptrs, len);

    for (int i = 0; i < m; ++i) {
      remote_.put(parity_rank(k, i), id,
                  parity[static_cast<std::size_t>(i)].data(), len,
                  /*capacity=*/len, epoch_key, /*commit=*/true);
      sent += len;
    }
    stats_.replication_bytes_equiv += k * len;
  }
  stats_.parity_bytes_sent += sent;
  ++stats_.epochs_protected;
  return sent;
}

bool ParityCheckpointGroup::recover_ranks(
    const std::vector<std::size_t>& lost_ranks) {
  const std::size_t k = managers_.size();
  const int m = rs_.parity_shards();
  if (lost_ranks.size() > static_cast<std::size_t>(m)) return false;

  std::vector<bool> lost(k, false);
  for (const std::size_t r : lost_ranks) {
    if (r >= k) throw NvmcpError("ParityCheckpointGroup: bad rank");
    lost[r] = true;
  }

  for (alloc::Chunk* lead : managers_[0]->allocator().chunks()) {
    if (!lead->persistent()) continue;
    const std::uint64_t id = lead->id();
    const std::size_t len = lead->size();
    const int total = rs_.total_shards();

    std::vector<std::vector<std::uint8_t>> buffers(
        static_cast<std::size_t>(total));
    std::vector<std::uint8_t*> shards(static_cast<std::size_t>(total));
    std::vector<bool> present(static_cast<std::size_t>(total), false);
    for (int i = 0; i < total; ++i) {
      buffers[static_cast<std::size_t>(i)].resize(len);
      shards[static_cast<std::size_t>(i)] =
          buffers[static_cast<std::size_t>(i)].data();
    }

    // Surviving ranks contribute their local committed payloads.
    for (std::size_t r = 0; r < k; ++r) {
      if (lost[r]) continue;
      alloc::Chunk* c = managers_[r]->allocator().find(id);
      if (!c || c->size() != len) continue;
      if (managers_[r]->allocator().read_committed(*c, shards[r])) {
        present[r] = true;
      }
    }
    // Parity comes from the remote store.
    for (int i = 0; i < m; ++i) {
      const auto idx = static_cast<std::size_t>(static_cast<int>(k) + i);
      if (remote_.get(parity_rank(k, i), id, shards[idx], len) == len) {
        present[idx] = true;
      }
    }

    if (!rs_.reconstruct(shards, present, len)) {
      log_warn("parity recovery failed for chunk %llu",
               static_cast<unsigned long long>(id));
      return false;
    }

    for (const std::size_t r : lost_ranks) {
      alloc::Chunk* c = managers_[r]->allocator().find(id);
      if (!c || c->size() != len) return false;
      std::memcpy(c->data(), shards[r], len);
      c->tracker().mark_dirty();  // must be re-persisted locally
      ++stats_.chunks_recovered;
    }
  }
  return true;
}

}  // namespace nvmcp::ecc
