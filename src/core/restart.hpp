// RestartCoordinator: the multilevel recovery flow as one component, and
// the library's only restore driver.
//
// The paper's model splits failures into soft errors (node reboots or
// process restarts; ~64% of failures on ASCI Q) recoverable from local
// NVM, and hard errors that lose the node and need the buddy copy. The
// restart component "first checks if the checkpoint data is
// available/consistent and if not, fetches the data from the remote peer
// node". One walk implements both kinds: the rank's persistent chunks
// shard size-balanced over the manager's copy workers, and each chunk
// runs one fallback chain --
//
//   lazy arm        soft, epoch 0, Options::lazy_local: restore on first
//                   access instead of copying;
//   local target    soft: the acknowledged slot (epoch 0) or the
//                   requested retained epoch, checksum-verified;
//   buddy frame     epoch 0, when a remote store exists;
//   older epoch     soft: the newest older retained epoch that verifies;
//
// -- and the parity hook rebuilds whatever no source restored. Commits
// keep running during the walk: a chunk becomes commit-eligible the
// moment its own payload lands (CheckpointManager's admission window).
//
// The report carries what the Section III model calls R_lcl / R_rmt --
// measured, not assumed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/manager.hpp"
#include "net/remote_memory.hpp"

namespace nvmcp::core {

enum class FailureKind {
  kSoft,  // process/OS restart; local NVM intact
  kHard,  // node lost; only remote data available
};

struct RestartReport {
  /// Worst status over the restored chunks; kNoData when any chunk failed
  /// every source (counted in chunks_failed).
  RestoreStatus status = RestoreStatus::kNoData;
  /// The epoch restored: the requested one, or what 0 resolved to (the
  /// newest local epoch of any chunk; 0 on a hard restart, whose buddy
  /// frames are the newest remote cut).
  std::uint64_t epoch = 0;
  double seconds = 0;            // measured restart (fetch) time
  std::uint64_t bytes_local = 0;   // restored from local NVM
  std::uint64_t bytes_remote = 0;  // fetched from the buddy store
  std::uint64_t bytes_parity = 0;  // reconstructed via a parity rebuild
  int chunks_local = 0;
  int chunks_remote = 0;
  int chunks_parity = 0;
  int chunks_lazy_armed = 0;
  int chunks_failed = 0;
  /// Chunks whose target epoch failed verification (and the remote fetch
  /// failed too) but which recovered from an older retained epoch in their
  /// version ring.
  int chunks_rolled_back = 0;
  std::uint64_t bytes_rolled_back = 0;
  /// Oldest epoch any chunk rolled back to (0 = no rollback happened).
  /// A value below the newest committed epoch flags a mixed-epoch cut.
  std::uint64_t rollback_epoch = 0;
  /// Commits nvchkptall deferred because their chunk had not landed yet
  /// (the admission window at work).
  std::uint64_t commits_deferred = 0;
};

class RestartCoordinator {
 public:
  struct Options {
    /// Soft restarts arm lazy restore-on-first-access instead of copying
    /// eagerly (restart latency becomes O(touched data)).
    bool lazy_local = false;
    /// Last-resort rebuild hook, fired once after the walk when chunks
    /// failed every source of their chain. Typically bound to
    /// ecc::ParityCheckpointGroup::recover_ranks for this rank (a
    /// callback, so core/ need not depend on ecc/). It must return true
    /// only after reconstructing every persistent chunk's DRAM payload.
    std::function<bool()> parity_rebuild;
    /// Transport health of this rank's replication path at crash time
    /// (RemoteCheckpointer::health). When the buddy was kIsolated the
    /// remote cut is suspect (arbitrarily stale), so a hard restart tries
    /// the parity rebuild *first* and falls back to per-chunk buddy
    /// fetches only for what parity cannot cover.
    RemoteHealth buddy_health = RemoteHealth::kHealthy;
  };

  /// `remote` may be null when no buddy store exists (local-only jobs);
  /// hard-failure restarts then report kNoData.
  RestartCoordinator(CheckpointManager& mgr, net::RemoteMemory* remote);
  RestartCoordinator(CheckpointManager& mgr, net::RemoteMemory* remote,
                     Options opts);

  /// Restore every persistent chunk of the manager after a failure of
  /// the given kind, as one walk (see the file comment). Shard 0 runs on
  /// the calling thread and the others on dedicated threads, none at one
  /// worker. `epoch` 0 restores the newest cut, resolved once under the
  /// commit mutex while the chunks register; a nonzero epoch (soft only)
  /// restores that retained epoch, its source slots pinned up front. The
  /// application must not touch a chunk until its restore lands (the
  /// admission window covers commits, not application loads). Throws
  /// NvmcpError for a hard restart at a nonzero epoch, before touching a
  /// chunk: the buddy holds only the newest cut. A hard restart numbers
  /// the manager's next checkpoint past every epoch the buddy holds for
  /// the rank's chunks. A rank with nothing to restore is kOk.
  RestartReport restart_after(FailureKind kind, std::uint64_t epoch = 0);

 private:
  /// Where one chunk's payload came from, or that no source had it.
  enum class Source : std::uint8_t {
    kLazy, kLocal, kRemote, kRolledBack, kFailed
  };
  /// One chunk's outcome, tallied into the report after the walk joins.
  struct Landed {
    alloc::Chunk* chunk;
    Source source;
    RestoreStatus status;  // the chunk's status when a source restored it
    std::uint64_t epoch;   // kRolledBack: the epoch it rolled back to
  };

  /// Run one chunk's fallback chain. `frame` is the worker's reused
  /// buddy-frame buffer.
  Landed restore_one(alloc::Chunk& c, bool soft, std::uint64_t epoch,
                     bool use_buddy, std::vector<std::byte>& frame);
  /// Fetch and decode the buddy's committed frame into c's DRAM.
  bool fetch_remote(alloc::Chunk& c, std::vector<std::byte>& frame);

  CheckpointManager* mgr_;
  net::RemoteMemory* remote_;
  Options opts_;
};

}  // namespace nvmcp::core
