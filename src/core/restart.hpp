// RestartCoordinator: the multilevel recovery flow as one component.
//
// The paper's model splits failures into soft errors (node reboots or
// process restarts; ~64% of failures on ASCI Q) recoverable from local
// NVM, and hard errors that lose the node and need the buddy copy. This
// coordinator implements the corresponding restart paths over the pieces
// the library already has:
//
//   soft failure:  local committed slots -> DRAM (checksum-verified);
//                  per-chunk fallback to the remote store on corruption;
//                  optional lazy mode arms restore-on-first-access instead
//                  of copying eagerly.
//   hard failure:  local NVM is presumed gone; everything fetches from the
//                  buddy store (or a parity group rebuild, when one is
//                  registered).
//
// The report carries what the Section III model calls R_lcl / R_rmt --
// measured, not assumed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/manager.hpp"
#include "net/remote_memory.hpp"

namespace nvmcp::core {

enum class FailureKind {
  kSoft,  // process/OS restart; local NVM intact
  kHard,  // node lost; only remote data available
};

struct RestartReport {
  RestoreStatus status = RestoreStatus::kNoData;
  double seconds = 0;            // measured restart (fetch) time
  std::uint64_t bytes_local = 0;   // restored from local NVM
  std::uint64_t bytes_remote = 0;  // fetched from the buddy store
  std::uint64_t bytes_parity = 0;  // reconstructed via a parity rebuild
  int chunks_local = 0;
  int chunks_remote = 0;
  int chunks_parity = 0;
  int chunks_lazy_armed = 0;
  int chunks_failed = 0;
  /// Ring mode: chunks whose newest epoch failed verification (and the
  /// remote fetch failed too) but which recovered from an older retained
  /// epoch in their version ring.
  int chunks_rolled_back = 0;
  std::uint64_t bytes_rolled_back = 0;
  /// Oldest epoch any chunk rolled back to (0 = no rollback happened).
  /// A value below the newest committed epoch flags a mixed-epoch cut.
  std::uint64_t rollback_epoch = 0;
};

class RestartCoordinator {
 public:
  struct Options {
    /// Soft restarts arm lazy restore-on-first-access instead of copying
    /// eagerly (restart latency becomes O(touched data)).
    bool lazy_local = false;
    /// Last-resort rebuild hook, fired once when chunks fail both the
    /// local and buddy paths. Typically bound to
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

  /// Run the restart path for the given failure kind over every
  /// persistent chunk of the manager.
  RestartReport restart_after(FailureKind kind);

 private:
  RestartReport restart_soft();
  RestartReport restart_hard();
  bool fetch_remote(alloc::Chunk& c);
  /// Fire the parity_rebuild hook for `failed` chunks; on success they
  /// are re-counted as parity-recovered and the list is cleared.
  bool try_parity_rebuild(RestartReport& rep,
                          std::vector<alloc::Chunk*>& failed,
                          RestoreStatus& worst);
  /// Shared tail of every restart path: count the leftover failures and
  /// settle the report status. A rank with nothing to restore (and no
  /// failures) is kOk -- an empty rank restarts fine by definition.
  static void finalize(RestartReport& rep,
                       const std::vector<alloc::Chunk*>& failed,
                       RestoreStatus worst);

  CheckpointManager* mgr_;
  net::RemoteMemory* remote_;
  Options opts_;
};

}  // namespace nvmcp::core
