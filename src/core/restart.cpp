#include "core/restart.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "compress/codec.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::core {

RestartCoordinator::RestartCoordinator(CheckpointManager& mgr,
                                       net::RemoteMemory* remote)
    : RestartCoordinator(mgr, remote, Options{}) {}

RestartCoordinator::RestartCoordinator(CheckpointManager& mgr,
                                       net::RemoteMemory* remote,
                                       Options opts)
    : mgr_(&mgr), remote_(remote), opts_(opts) {}

bool RestartCoordinator::fetch_remote(alloc::Chunk& c,
                                      std::vector<std::byte>& frame) {
  if (!remote_) return false;
  // The committed remote slot holds a frame: a CodecHeader plus the
  // (possibly encoded) body, never the bare payload. Shards run largest
  // chunk first, so the worker's buffer grows once.
  const std::size_t cap = compress::max_frame_size(c.size());
  if (frame.size() < cap) frame.resize(cap);
  const std::size_t fn =
      remote_->get(mgr_->config().rank, c.id(), frame.data(), cap);
  compress::CodecHeader hdr;
  if (fn == 0 || !compress::peek_frame(frame.data(), fn, &hdr) ||
      hdr.raw_size != c.size()) {
    return false;
  }
  // Every frame the helper ships decodes on its own. A delta frame left
  // in an older store needs a base and is rejected as need-base below.
  const compress::DecodeStatus st =
      compress::decode_frame(frame.data(), fn, nullptr, c.data(), c.size());
  if (st != compress::DecodeStatus::kOk) {
    // Detected, never laundered: the frame's raw CRC (or its structure)
    // ruled the decoded bytes out, so this source is rejected outright.
    log_warn("remote frame for chunk %llu rejected at decode: %s",
             static_cast<unsigned long long>(c.id()),
             compress::to_string(st));
    return false;
  }
  c.tracker().mark_dirty();  // fetched data must be re-persisted locally
  return true;
}

RestartCoordinator::Landed RestartCoordinator::restore_one(
    alloc::Chunk& c, bool soft, std::uint64_t epoch, bool use_buddy,
    std::vector<std::byte>& frame) {
  auto& allocator = mgr_->allocator();
  if (soft && epoch == 0 && opts_.lazy_local &&
      allocator.restore_chunk_lazy(c)) {
    return {&c, Source::kLazy, RestoreStatus::kOk, 0};  // bytes move later
  }
  if (soft) {
    const RestoreStatus st = allocator.restore_chunk(c, epoch);
    if (st == RestoreStatus::kOk || st == RestoreStatus::kOkStale) {
      return {&c, Source::kLocal, st, 0};
    }
  }
  if (epoch == 0 && use_buddy && fetch_remote(c, frame)) {
    return {&c, Source::kRemote, RestoreStatus::kOkFromRemote, 0};
  }
  if (soft) {
    // Target epoch corrupt or gone and no buddy copy: an older retained
    // epoch (depth 1 keeps one between commits) beats losing the chunk.
    // The cut may now mix epochs across chunks; rollback_epoch flags that
    // for the caller to judge.
    if (const std::uint64_t rb = allocator.restore_older_epoch(c, epoch)) {
      return {&c, Source::kRolledBack, RestoreStatus::kOkStale, rb};
    }
  }
  return {&c, Source::kFailed, RestoreStatus::kNoData, 0};
}

RestartReport RestartCoordinator::restart_after(FailureKind kind,
                                                std::uint64_t epoch) {
  const bool soft = kind == FailureKind::kSoft;
  if (!soft && epoch != 0) {
    throw NvmcpError("restart_after: a hard restart cannot target epoch " +
                     std::to_string(epoch) +
                     "; the buddy holds only the newest cut");
  }
  telemetry::Span span(soft ? "restart_soft" : "restart_hard",
                       "ckpt.restart");
  const Stopwatch sw;
  RestartReport rep;
  rep.epoch = epoch;
  auto& allocator = mgr_->allocator();

  // Register under the commit mutex, so no checkpoint round is mid-flight
  // while the admission window fills. The walk itself runs without it:
  // rounds commit every chunk that has already landed.
  std::vector<alloc::Chunk*> work;
  {
    std::lock_guard<std::mutex> lock(mgr_->commit_mutex());
    std::uint64_t buddy_epoch = 0;
    for (alloc::Chunk* c : allocator.chunks()) {
      if (!c->persistent()) continue;
      work.push_back(c);
      if (!soft && remote_) {
        buddy_epoch = std::max(
            buddy_epoch,
            remote_->store().held_epoch(mgr_->config().rank, c->id()));
      }
      if (!soft || epoch != 0) continue;
      if (const auto acked = allocator.acknowledged(*c)) {
        rep.epoch = std::max(rep.epoch, acked->epoch);
      }
    }
    // A fresh device numbers epochs from 1, but the buddy labels frames by
    // (rank, chunk, epoch) alone: reusing the lost node's epochs would have
    // the helper take its committed or staged frames for the new ones.
    mgr_->number_epochs_past(buddy_epoch);
    mgr_->open_restore_window(work);
    // An explicitly requested epoch is reclaimable (the newest committed
    // version never is): pin every source slot up front so neither the GC
    // nor a commit recycling ring slots reclaims one before its turn.
    for (alloc::Chunk* c : work) allocator.pin_epoch(*c, epoch);
  }

  // An isolated replication path means the buddy's committed cut may be
  // arbitrarily stale (its last successful coordination could be many
  // epochs behind), so the parity group -- which protects the latest
  // protected epoch -- is the more trustworthy source. Try it first and
  // keep the buddy only as a per-chunk fallback.
  const bool distrust_buddy =
      !soft && opts_.buddy_health == RemoteHealth::kIsolated &&
      static_cast<bool>(opts_.parity_rebuild);
  if (distrust_buddy) {
    log_warn("hard restart: buddy was isolated at crash time; preferring "
             "parity rebuild over the (suspect) remote copy");
  }

  // Shard 0 on the caller, the rest on dedicated threads rather than the
  // copier pool: commit rounds shard over that pool, and restore shards
  // queued ahead of them would serialize the very commits the window
  // admits.
  const auto shards = shard_by_size(work, mgr_->copy_threads());
  std::vector<std::vector<Landed>> landed(shards.size());
  std::mutex error_mu;
  std::exception_ptr error;
  const auto run_shard = [&](std::size_t w) {
    std::vector<std::byte> frame;
    try {
      for (alloc::Chunk* c : shards[w]) {
        landed[w].push_back(
            restore_one(*c, soft, epoch, !distrust_buddy, frame));
        // A failed chunk stays deferred until the parity hook has run.
        if (landed[w].back().source != Source::kFailed) {
          mgr_->admit_restored(c->id());
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w < shards.size(); ++w) {
    if (!shards[w].empty()) workers.emplace_back(run_shard, w);
  }
  run_shard(0);
  for (auto& t : workers) t.join();

  RestoreStatus worst = RestoreStatus::kOk;
  std::vector<alloc::Chunk*> failed;
  const auto tally = [&](const Landed& l) {
    const std::uint64_t bytes = l.chunk->size();
    switch (l.source) {
      case Source::kLazy:
        ++rep.chunks_lazy_armed;
        return;
      case Source::kLocal:
        ++rep.chunks_local;
        rep.bytes_local += bytes;
        break;
      case Source::kRemote:
        ++rep.chunks_remote;
        rep.bytes_remote += bytes;
        break;
      case Source::kRolledBack:
        ++rep.chunks_rolled_back;
        rep.bytes_rolled_back += bytes;
        if (rep.rollback_epoch == 0 || l.epoch < rep.rollback_epoch) {
          rep.rollback_epoch = l.epoch;
        }
        break;
      case Source::kFailed:
        failed.push_back(l.chunk);
        return;
    }
    worst = std::max(worst, l.status);  // statuses order by severity
  };
  if (!error) {
    try {
      for (const auto& shard : landed) {
        for (const Landed& l : shard) tally(l);
      }
      // The rebuild reconstructs the whole rank from survivors + remote
      // parity in one pass (a parity group cannot rebuild a single
      // chunk). Every failed chunk then holds the parity epoch's payload;
      // chunks that restored fine are overwritten with the same
      // consistent cut, which is the correct multilevel-restart semantics
      // anyway.
      if (!failed.empty() && opts_.parity_rebuild &&
          opts_.parity_rebuild()) {
        for (alloc::Chunk* c : failed) {
          ++rep.chunks_parity;
          rep.bytes_parity += c->size();
        }
        failed.clear();
        worst = std::max(worst, RestoreStatus::kOkFromRemote);
      } else if (distrust_buddy) {
        // Parity declined or failed: the suspect buddy is still better
        // than nothing for whatever remains.
        std::vector<std::byte> frame;
        std::vector<alloc::Chunk*> lost;
        lost.swap(failed);
        for (alloc::Chunk* c : lost) {
          tally(restore_one(*c, soft, epoch, /*use_buddy=*/true, frame));
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
  // Every exit closes the window: a chunk left deferred would be
  // excluded from every future checkpoint.
  for (alloc::Chunk* c : work) allocator.unpin_epoch(*c, epoch);
  rep.commits_deferred = mgr_->close_restore_window();
  if (error) std::rethrow_exception(error);
  rep.chunks_failed = static_cast<int>(failed.size());
  rep.status = failed.empty() ? worst : RestoreStatus::kNoData;
  rep.seconds = sw.elapsed();

  // Restart outcomes land in the manager's registry so one snapshot holds
  // the full story of a rank (checkpoints taken, then how it came back).
  auto& metrics = mgr_->metrics();
  metrics.counter("restart.attempts").add(1);
  metrics.counter("restart.bytes_local").add(rep.bytes_local);
  metrics.counter("restart.bytes_remote").add(rep.bytes_remote);
  metrics.counter("restart.bytes_parity").add(rep.bytes_parity);
  metrics.counter("restart.chunks_parity")
      .add(static_cast<std::uint64_t>(rep.chunks_parity));
  metrics.counter("restart.chunks_lazy_armed")
      .add(static_cast<std::uint64_t>(rep.chunks_lazy_armed));
  metrics.counter("restart.chunks_failed")
      .add(static_cast<std::uint64_t>(rep.chunks_failed));
  metrics.counter("restart.chunks_rolled_back")
      .add(static_cast<std::uint64_t>(rep.chunks_rolled_back));
  metrics.gauge("restart.last_seconds").set(rep.seconds);
  log_info("restart(%s): epoch=%llu status=%s local=%d remote=%d parity=%d "
           "lazy=%d rolled_back=%d failed=%d deferred_commits=%llu in %s",
           soft ? "soft" : "hard", static_cast<unsigned long long>(rep.epoch),
           to_string(rep.status), rep.chunks_local, rep.chunks_remote,
           rep.chunks_parity, rep.chunks_lazy_armed, rep.chunks_rolled_back,
           rep.chunks_failed,
           static_cast<unsigned long long>(rep.commits_deferred),
           format_seconds(rep.seconds).c_str());
  return rep;
}

}  // namespace nvmcp::core
