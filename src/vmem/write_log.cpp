#include "vmem/write_log.hpp"

#include <algorithm>

#include "vmem/protection.hpp"

namespace nvmcp::vmem {
namespace {

/// A sink whose un-collected range list grows past this is switched to
/// whole-chunk pending: an uncollected chunk should cost bounded memory.
constexpr std::size_t kMaxPendingRanges = 1u << 16;

}  // namespace

void merge_dirty_ranges(std::vector<DirtyRange>& ranges,
                        std::uint64_t merge_gap) {
  if (ranges.size() < 2) return;
  std::sort(ranges.begin(), ranges.end(),
            [](const DirtyRange& a, const DirtyRange& b) {
              return a.off < b.off;
            });
  std::size_t w = 0;
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    DirtyRange& cur = ranges[w];
    if (ranges[i].off <= cur.end() + merge_gap) {
      cur.len = std::max(cur.end(), ranges[i].end()) - cur.off;
    } else {
      ranges[++w] = ranges[i];
    }
  }
  ranges.resize(w + 1);
}

WriteLogRegistry& WriteLogRegistry::instance() {
  // Leaked on purpose: writer threads may outlive main's statics, and
  // their thread_local shard handles release into this object on exit.
  static auto* registry = new WriteLogRegistry();
  return *registry;
}

WriteLogRegistry::Shard* WriteLogRegistry::my_shard() {
  struct TlsHandle {
    Shard* shard = nullptr;
    ~TlsHandle() {
      if (shard) shard->claimed.store(false, std::memory_order_release);
    }
  };
  static thread_local TlsHandle tls;
  if (tls.shard) return tls.shard;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : shards_) {
    bool expected = false;
    if (s->claimed.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      tls.shard = s.get();
      return tls.shard;
    }
  }
  shards_.push_back(std::make_unique<Shard>(shard_capacity()));
  tls.shard = shards_.back().get();
  return tls.shard;
}

void WriteLogRegistry::append(DirtyLogSink* sink, std::uint64_t off,
                              std::uint64_t len) {
  if (!sink || len == 0) return;
  WriteTracker* t = sink->tracker;
  // Bumped BEFORE the record publish and the dirty flag, mirroring the
  // fault handler's counter-then-flag order: the pre-copy dance reads
  // faults + writes_logged around its dirty-flag clear to detect a racing
  // writer (see ChunkAllocator::precopy_chunk).
  t->writes_logged.fetch_add(1);

  Shard* sh = my_shard();
  const std::uint64_t head = sh->head.load(std::memory_order_acquire);
  const std::uint64_t tail = sh->tail.load(std::memory_order_relaxed);
  if (tail - head >= sh->ring.size()) {
    // Ring full: fall back to whole-chunk dirtiness. Correct because the
    // store already landed, so a whole-chunk copy will include it.
    sink->whole_dirty.store(true, std::memory_order_release);
    t->log_drops.fetch_add(1, std::memory_order_relaxed);
    sh->drops.fetch_add(1, std::memory_order_relaxed);
  } else {
    Record& r = sh->ring[tail % sh->ring.size()];
    r.sink = sink;
    r.off = off;
    r.len = len;
    r.epoch = sink->epoch.load(std::memory_order_relaxed);
    sh->tail.store(tail + 1, std::memory_order_release);
    t->log_bytes.fetch_add(len, std::memory_order_relaxed);
    sh->bytes.fetch_add(len, std::memory_order_relaxed);
  }
  sh->appends.fetch_add(1, std::memory_order_relaxed);

  // Sequentially consistent, like the count bump above: a load that read
  // a true the pre-copy clear then overwrote would otherwise skip the mark
  // while the clear's recheck missed the bump (ChunkAllocator::
  // precopy_chunk).
  if (!t->dirty_local.load()) {
    t->mark_dirty();
  } else {
    t->mods_in_interval.fetch_add(1, std::memory_order_acq_rel);
  }
}

void WriteLogRegistry::drain_locked() {
  for (auto& sh : shards_) {
    const std::uint64_t tail = sh->tail.load(std::memory_order_acquire);
    std::uint64_t head = sh->head.load(std::memory_order_relaxed);
    for (; head != tail; ++head) {
      const Record& r = sh->ring[head % sh->ring.size()];
      if (!r.sink) continue;
      if (r.sink->pending.size() >= kMaxPendingRanges) {
        r.sink->whole_dirty.store(true, std::memory_order_release);
        r.sink->pending.clear();
      } else {
        r.sink->pending.push_back(DirtyRange{r.off, r.len});
      }
    }
    sh->head.store(tail, std::memory_order_release);
  }
}

WriteLogRegistry::Collected WriteLogRegistry::collect(DirtyLogSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
  Collected out;
  out.ranges.swap(sink->pending);
  out.whole = sink->whole_dirty.exchange(false, std::memory_order_acq_rel);
  return out;
}

void WriteLogRegistry::purge(DirtyLogSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  // Dispatch everything (other sinks keep their records), then drop the
  // dying sink's state; afterwards no ring slot references it.
  drain_locked();
  sink->pending.clear();
  sink->whole_dirty.store(false, std::memory_order_release);
}

void WriteLogRegistry::set_shard_capacity(std::size_t records) {
  capacity_.store(std::max<std::size_t>(records, 4),
                  std::memory_order_relaxed);
}

std::size_t WriteLogRegistry::shard_capacity() const {
  return capacity_.load(std::memory_order_relaxed);
}

std::uint64_t WriteLogRegistry::total_appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->appends.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t WriteLogRegistry::total_log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->bytes.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t WriteLogRegistry::total_drops() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->drops.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace nvmcp::vmem
