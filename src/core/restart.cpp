#include "core/restart.hpp"

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

bool RestartCoordinator::fetch_remote(alloc::Chunk& c) {
  if (!remote_) return false;
  // The committed remote slot holds a frame: a CodecHeader plus the
  // (possibly encoded) body, never the bare payload.
  std::vector<std::byte> frame(compress::max_frame_size(c.size()));
  const std::size_t fn = remote_->get(mgr_->config().rank, c.id(),
                                      frame.data(), frame.size());
  compress::CodecHeader hdr;
  if (fn == 0 || !compress::peek_frame(frame.data(), fn, &hdr) ||
      hdr.raw_size != c.size()) {
    return false;
  }
  std::vector<std::byte> base;
  const void* base_p = nullptr;
  if (hdr.codec == static_cast<std::uint8_t>(compress::Codec::kDelta)) {
    // Walk back to the delta's base epoch in the local version ring.
    // The sender pinned it against GC, but pins are runtime state: a
    // hard crash (or a corrupted ring slot) can still lose the base,
    // in which case the chunk legitimately falls through to
    // rollback/parity and the helper re-ships raw.
    base.resize(c.size());
    if (!mgr_->allocator().read_retained(c, hdr.base_epoch, base.data())) {
      return false;
    }
    base_p = base.data();
  }
  const compress::DecodeStatus st =
      compress::decode_frame(frame.data(), fn, base_p, c.data(), c.size());
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

bool RestartCoordinator::try_parity_rebuild(
    RestartReport& rep, std::vector<alloc::Chunk*>& failed,
    RestoreStatus& worst) {
  if (failed.empty() || !opts_.parity_rebuild) return false;
  // The rebuild reconstructs the whole rank from survivors + remote
  // parity in one pass (a parity group cannot rebuild a single chunk).
  // Every previously-failed chunk now holds the parity epoch's payload;
  // chunks that restored fine are overwritten with the same consistent
  // cut, which is the correct multilevel-restart semantics anyway.
  if (!opts_.parity_rebuild()) return false;
  for (alloc::Chunk* c : failed) {
    ++rep.chunks_parity;
    rep.bytes_parity += c->size();
  }
  failed.clear();
  if (static_cast<int>(RestoreStatus::kOkFromRemote) >
      static_cast<int>(worst)) {
    worst = RestoreStatus::kOkFromRemote;
  }
  return true;
}

void RestartCoordinator::finalize(RestartReport& rep,
                                  const std::vector<alloc::Chunk*>& failed,
                                  RestoreStatus worst) {
  rep.chunks_failed = static_cast<int>(failed.size());
  // `worst` starts at kOk, so a rank with zero persistent chunks (nothing
  // to restore, nothing failed) correctly restarts as kOk.
  rep.status = failed.empty() ? worst : RestoreStatus::kNoData;
}

RestartReport RestartCoordinator::restart_soft() {
  RestartReport rep;
  auto& allocator = mgr_->allocator();
  RestoreStatus worst = RestoreStatus::kOk;
  std::vector<alloc::Chunk*> failed;
  for (alloc::Chunk* c : allocator.chunks()) {
    if (!c->persistent()) continue;
    if (opts_.lazy_local && allocator.restore_chunk_lazy(*c)) {
      ++rep.chunks_lazy_armed;
      continue;  // bytes move on first touch, not here
    }
    RestoreStatus st = allocator.restore_chunk(*c);
    if (st == RestoreStatus::kOk) {
      ++rep.chunks_local;
      rep.bytes_local += c->size();
    } else if (fetch_remote(*c)) {
      st = RestoreStatus::kOkFromRemote;
      ++rep.chunks_remote;
      rep.bytes_remote += c->size();
    } else if (const std::uint64_t rb = allocator.restore_older_epoch(*c, 0)) {
      // Newest epoch corrupt and no remote copy: an older retained epoch
      // (depth 1 keeps one between commits) beats losing the chunk. The
      // cut may now mix epochs across chunks; rollback_epoch flags that
      // for the caller to judge.
      st = RestoreStatus::kOkStale;
      ++rep.chunks_rolled_back;
      rep.bytes_rolled_back += c->size();
      if (rep.rollback_epoch == 0 || rb < rep.rollback_epoch) {
        rep.rollback_epoch = rb;
      }
    } else {
      failed.push_back(c);
      continue;  // folded into worst only if the parity rebuild also fails
    }
    if (static_cast<int>(st) > static_cast<int>(worst)) worst = st;
  }
  try_parity_rebuild(rep, failed, worst);
  finalize(rep, failed, worst);
  return rep;
}

RestartReport RestartCoordinator::restart_hard() {
  RestartReport rep;
  auto& allocator = mgr_->allocator();
  RestoreStatus worst = RestoreStatus::kOk;
  std::vector<alloc::Chunk*> failed;
  // An isolated replication path means the buddy's committed cut may be
  // arbitrarily stale (its last successful coordination could be many
  // epochs behind), so the parity group -- which protects the latest
  // protected epoch -- is the more trustworthy source. Try it first and
  // keep the buddy only as a per-chunk fallback.
  const bool distrust_buddy =
      opts_.buddy_health == RemoteHealth::kIsolated &&
      static_cast<bool>(opts_.parity_rebuild);
  if (distrust_buddy) {
    log_warn("hard restart: buddy was isolated at crash time; preferring "
             "parity rebuild over the (suspect) remote copy");
  }
  for (alloc::Chunk* c : allocator.chunks()) {
    if (!c->persistent()) continue;
    if (!distrust_buddy && fetch_remote(*c)) {
      ++rep.chunks_remote;
      rep.bytes_remote += c->size();
      if (static_cast<int>(RestoreStatus::kOkFromRemote) >
          static_cast<int>(worst)) {
        worst = RestoreStatus::kOkFromRemote;
      }
    } else {
      failed.push_back(c);
    }
  }
  if (!try_parity_rebuild(rep, failed, worst) && distrust_buddy) {
    // Parity declined or failed: the suspect buddy is still better than
    // nothing for whatever remains.
    std::vector<alloc::Chunk*> still_failed;
    for (alloc::Chunk* c : failed) {
      if (fetch_remote(*c)) {
        ++rep.chunks_remote;
        rep.bytes_remote += c->size();
        if (static_cast<int>(RestoreStatus::kOkFromRemote) >
            static_cast<int>(worst)) {
          worst = RestoreStatus::kOkFromRemote;
        }
      } else {
        still_failed.push_back(c);
      }
    }
    failed.swap(still_failed);
  }
  finalize(rep, failed, worst);
  return rep;
}

RestartReport RestartCoordinator::restart_after(FailureKind kind) {
  telemetry::Span span(kind == FailureKind::kSoft ? "restart_soft"
                                                  : "restart_hard",
                       "ckpt.restart");
  const Stopwatch sw;
  RestartReport rep =
      kind == FailureKind::kSoft ? restart_soft() : restart_hard();
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
  log_info("restart(%s): status=%s local=%d remote=%d parity=%d lazy=%d "
           "rolled_back=%d failed=%d in %s",
           kind == FailureKind::kSoft ? "soft" : "hard",
           to_string(rep.status), rep.chunks_local, rep.chunks_remote,
           rep.chunks_parity, rep.chunks_lazy_armed, rep.chunks_rolled_back,
           rep.chunks_failed, format_seconds(rep.seconds).c_str());
  return rep;
}

}  // namespace nvmcp::core
