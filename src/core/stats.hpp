// Checkpoint statistics, the measurements behind every figure:
//   - blocking (coordinated) local checkpoint time and bytes  (Figs 7/8)
//   - background pre-copy bytes (total data moved to NVM)     (Figs 7/8)
//   - chunks skipped because unmodified                       (Fig 8 note)
// The remote helper's numbers live only in its "remote.*" registry.
#pragma once

#include <cstdint>

#include "common/stats.hpp"

namespace nvmcp::core {

struct CheckpointStats {
  // Local coordinated step.
  std::uint64_t local_checkpoints = 0;
  double local_blocking_seconds = 0;  // app-visible checkpoint time
  // Payload bytes moved to NVM during the blocking step: the merged dirty
  // ranges of a range copy, the chunk size of a whole copy.
  std::uint64_t bytes_coordinated = 0;

  // Background pre-copy.
  std::uint64_t bytes_precopied = 0;  // moved by the engine, counted alike
  double precopy_seconds = 0;  // background thread time in copies
  std::uint64_t precopy_passes = 0;  // chunk copies done by the engine

  // Commit outcomes at coordinated steps.
  std::uint64_t chunks_committed_from_precopy = 0;  // clean since pre-copy
  std::uint64_t chunks_recopied_dirty = 0;          // dirty at the step
  std::uint64_t chunks_skipped_unmodified = 0;      // not touched at all

  // Dirty tracking.
  std::uint64_t protection_faults = 0;
  double fault_seconds = 0;  // time spent inside this rank's chunk faults
  /// mprotect syscalls issued by the ProtectionManager. Process-global
  /// (the manager is a singleton), unlike the per-chunk sums above.
  std::uint64_t mprotect_calls = 0;
  // kWriteLog: bytes recorded by this rank's chunks / appends dropped to
  // whole-chunk fallback (ring overflow).
  std::uint64_t log_bytes = 0;
  std::uint64_t log_drops = 0;

  std::uint64_t total_nvm_bytes() const {
    return bytes_coordinated + bytes_precopied;
  }
};

}  // namespace nvmcp::core
