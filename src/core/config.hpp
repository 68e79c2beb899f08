// Checkpoint policy configuration (paper Section IV).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

namespace nvmcp::core {

/// Local-checkpoint data movement policies evaluated in the paper:
///   kNone  - "no pre-copy": all dirty data moves during the coordinated
///            (blocking) checkpoint step. Figs 7/8 baseline.
///   kCpc   - chunk-based pre-copy: dirty chunks are copied to NVM in the
///            background throughout the compute interval.
///   kDcpc  - delayed chunk pre-copy: background copying starts only at the
///            pre-copy threshold T_p = I - D/NVMBW_core.
///   kDcpcp - delayed pre-copy with prediction: additionally, a chunk is
///            only pre-copied once its modification count this interval
///            reaches the learned prediction-table value (hot chunks are
///            not copied repeatedly).
enum class PrecopyPolicy : std::uint8_t { kNone, kCpc, kDcpc, kDcpcp };

inline const char* to_string(PrecopyPolicy p) {
  switch (p) {
    case PrecopyPolicy::kNone: return "no-precopy";
    case PrecopyPolicy::kCpc: return "CPC";
    case PrecopyPolicy::kDcpc: return "DCPC";
    case PrecopyPolicy::kDcpcp: return "DCPCP";
  }
  return "?";
}

/// Remote-transport payload codec (the adaptive-codec stage fused into
/// the parallel checkpoint pipeline). Local NVM slots always hold raw
/// bytes; the codec applies to what the remote helper *ships*, which is
/// always a self-contained compress:: frame (header with the
/// decoded-payload CRC, then the body), so the buddy's copy alone
/// restores a chunk after a hard failure:
///   kUnset    - resolve from NVMCP_CODEC (unset env = kRaw)
///   kRaw      - every send a raw frame (payload verbatim)
///   kLz       - every send framed + LZ-compressed (raw fallback when the
///               payload does not shrink)
///   kAdaptive - per-chunk choice raw/LZ from the sampled-entropy probe
///               and the CodecTuner's observed encode-throughput-vs-link
///               cost model
enum class CodecMode : std::uint8_t { kUnset, kRaw, kLz, kAdaptive };

inline const char* to_string(CodecMode m) {
  switch (m) {
    case CodecMode::kUnset: return "unset";
    case CodecMode::kRaw: return "raw";
    case CodecMode::kLz: return "lz";
    case CodecMode::kAdaptive: return "adaptive";
  }
  return "?";
}

struct CheckpointConfig {
  PrecopyPolicy local_policy = PrecopyPolicy::kDcpcp;

  /// Effective NVM bandwidth available to this rank's checkpoint stream
  /// (the paper's NVMBW_core knob, swept in Figs 7/8). 0 = unlimited
  /// (useful when only the shared device limit should apply).
  double nvm_bw_per_core = 400.0 * MiB;

  /// Copier workers for the coordinated commit (nvchkptall), the restart
  /// walk and the background pre-copy scan: the calling thread plus
  /// copy_threads - 1 others. Each commit worker drives its own NVMBW_core
  /// stream limiter (the paper's concurrent-copier model, Fig 4) while
  /// the device-global limiter still caps the aggregate. 0 = resolve from
  /// the NVMCP_COPY_THREADS environment variable, defaulting to 1 (the
  /// caller alone); an explicit value ignores the environment.
  std::size_t copy_threads = 0;

  /// Cadence of the background pre-copy scan loop.
  double precopy_scan_period = 2e-3;

  /// Safety margin on the DCPC threshold: start pre-copy when the
  /// remaining interval is margin * T_c (T_c = D / NVMBW_core), so the
  /// sweep finishes just before the coordinated step.
  double dcpc_margin = 1.25;

  /// EMA smoothing for the learned interval/data-size estimates
  /// ("we continuously adapt the pre-copy threshold").
  double learn_alpha = 0.5;

  /// Skip chunks that have not been modified since their last commit
  /// (chunk-level modification tracking, "avoid repeating checkpoint for
  /// unmodified chunks without more heavy-weight diff computations").
  /// The paper's no-pre-copy baseline has no tracking and re-copies
  /// everything; benches disable this for that baseline.
  bool skip_unmodified = true;

  /// Batched re-arm of dirty tracking: the coordinated step and the
  /// pre-copy batches protect their chunks through
  /// ChunkAllocator::arm_chunks, which coalesces address-adjacent ranges
  /// into O(runs) mprotect calls instead of one per chunk.
  /// -1 = resolve from NVMCP_BATCH_REARM (default on); 0/1 pin it.
  int batch_rearm = -1;

  /// Background epoch-ring GC (only active when the allocator runs with
  /// ring depth > 1): device-occupancy watermark above which old retained
  /// epochs are reclaimed oldest-first (-1 = NVMCP_EPOCH_GC_WATERMARK,
  /// default 0.85) and the per-chunk retention floor the GC never digs
  /// below (-1 = NVMCP_EPOCH_GC_FLOOR, default 2, clamped to the depth).
  double epoch_gc_watermark = -1;
  int epoch_gc_floor = -1;
  /// Seconds between GC occupancy checks.
  double epoch_gc_period = 2e-3;
  /// Run the GC on a background thread between start()/stop(). Harnesses
  /// that need deterministic reclamation disable this and drive
  /// EpochGc::run_pass directly.
  bool epoch_gc_background = true;

  /// Remote-transport codec for this rank's chunks (see CodecMode).
  /// kUnset consults the NVMCP_CODEC environment knob; unset there too
  /// means kRaw (raw frames).
  CodecMode codec_mode = CodecMode::kUnset;

  /// Rank of this process within its node (used for remote put keys).
  std::uint32_t rank = 0;
};

/// Resolve CheckpointConfig::copy_threads: 0 consults NVMCP_COPY_THREADS
/// (clamped to [1, 64]; unset or unparsable means 1), anything else is
/// returned unchanged.
std::size_t resolve_copy_threads(std::size_t configured);

/// Resolve CheckpointConfig::batch_rearm: -1 consults NVMCP_BATCH_REARM
/// ("0"/"off"/"false" disables, anything else -- including unset -- means
/// enabled); 0/1 are returned as false/true regardless of the environment.
bool resolve_batch_rearm(int configured);

/// Resolve CheckpointConfig::codec_mode: kUnset consults NVMCP_CODEC
/// ("raw" / "lz" / "adaptive"; unset or unrecognized = raw),
/// any pinned value is returned unchanged.
CodecMode resolve_codec_mode(CodecMode configured);

/// Health of one rank's remote-replication path. Transitions are driven by
/// the helper's send outcomes (see RemoteCheckpointer):
///   kHealthy  -> kDegraded   a send exhausted its retry allowance
///   kDegraded -> kIsolated   `isolate_failures` consecutive failed sends
///   any       -> kHealthy    `probation_puts` consecutive successful puts
/// An isolated rank is effectively not remote-protected; RestartCoordinator
/// consults this to prefer a parity rebuild over a suspect buddy copy.
enum class RemoteHealth : std::uint8_t { kHealthy, kDegraded, kIsolated };

inline const char* to_string(RemoteHealth h) {
  switch (h) {
    case RemoteHealth::kHealthy: return "healthy";
    case RemoteHealth::kDegraded: return "degraded";
    case RemoteHealth::kIsolated: return "isolated";
  }
  return "?";
}

/// Retry/timeout/backoff policy for remote checkpoint puts. A transient
/// link outage retries under this policy instead of silently dropping the
/// chunk; on exhaustion the coordination round completes *degraded* (the
/// stale chunks are recorded and re-shipped next round) rather than
/// pretending the remote cut advanced.
struct RemoteRetryPolicy {
  /// Put attempts in phase 1 / eager pre-copy retries happen in the scan
  /// loop itself, so pre-copy sends use a single attempt.
  int max_attempts = 4;
  /// Put attempts during the commit pass. Phase 2 runs under every
  /// manager's commit mutex, so its retries are bounded separately to cap
  /// the mutex hold time.
  int phase2_attempts = 2;
  /// Wall-clock deadline for one chunk send including its retries.
  double put_deadline = 0.5;
  /// Exponential backoff between attempts: base * factor^n, capped at
  /// backoff_max, each sleep jittered by +/- `jitter` (fraction, from
  /// common/rng) to de-synchronize ranks hammering a recovering link.
  double backoff_base = 1e-3;
  double backoff_factor = 2.0;
  double backoff_max = 50e-3;
  double jitter = 0.5;
  /// Total backoff-sleep budget per coordination round. Once spent, the
  /// round stops retrying and completes degraded.
  double round_budget = 1.0;
  /// Consecutive failed sends before a rank's health drops to kIsolated.
  int isolate_failures = 6;
  /// Consecutive successful puts before a degraded/isolated rank is
  /// considered healthy again (probation).
  int probation_puts = 3;
};

struct RemoteConfig {
  PrecopyPolicy policy = PrecopyPolicy::kDcpcp;
  /// Coordinated remote checkpoint interval, seconds (paper: 47-180 s;
  /// contains K local checkpoints).
  double interval = 120.0;
  /// Helper scan cadence.
  double scan_period = 5e-3;
  /// DCPCP delay: fraction of the remote interval after which eager
  /// remote pre-copy starts ("the delay time before a remote pre-copy is
  /// dependent on the remote checkpoint interval").
  double delay_fraction = 0.4;
  /// Retry/backoff policy for remote puts.
  RemoteRetryPolicy retry;
  /// When true (default), NVMCP_REMOTE_* environment knobs override the
  /// configured retry fields (ops tuning without a rebuild). Deterministic
  /// harnesses (chaos campaigns, replay tests) pin this to false.
  bool retry_from_env = true;
};

/// Resolve RemoteConfig::retry: applies the NVMCP_REMOTE_MAX_ATTEMPTS,
/// NVMCP_REMOTE_PHASE2_ATTEMPTS, NVMCP_REMOTE_PUT_DEADLINE,
/// NVMCP_REMOTE_BACKOFF_BASE, NVMCP_REMOTE_BACKOFF_MAX,
/// NVMCP_REMOTE_JITTER, NVMCP_REMOTE_ROUND_BUDGET,
/// NVMCP_REMOTE_ISOLATE_FAILURES and NVMCP_REMOTE_PROBATION_PUTS
/// environment overrides (unless retry_from_env is false) and clamps every
/// field to a sane range.
RemoteRetryPolicy resolve_remote_retry(const RemoteConfig& cfg);

}  // namespace nvmcp::core
