// CampaignRunner: seeded chaos campaigns with end-to-end recovery
// validation.
//
// A campaign executes N independent trials in parallel. Each trial builds
// a complete emulated node (per-rank NVM devices + allocators + checkpoint
// managers, a shared interconnect, a buddy store with either full
// replication or a Reed-Solomon parity group), runs a deterministic
// compute/checkpoint workload on a *logical* clock, fires the faults of a
// generated FaultPlan at their scheduled logical moments, recovers through
// RestartCoordinator, and verifies the victim rank's restored memory
// byte-for-byte against golden snapshots taken at every committed epoch.
//
// Trials classify as:
//   recovered-local     all chunks back at the latest epoch from local NVM
//   recovered-remote    latest epoch, but at least one buddy fetch
//   parity-rebuild      latest epoch via the RS parity-group path
//   stale-epoch         consistent committed data, but an older epoch
//                       (progress lost; detectable from epoch metadata)
//   detected-corruption recovery itself reported failure (known loss)
//   undetected-loss     recovery claimed success yet bytes match no
//                       committed epoch -- ALWAYS a bug in the library
//   no-fault            the plan's crash landed past the horizon
//
// Determinism: trial i derives its seed SplitMix-style from the campaign
// root seed; the plan, the workload contents, every injector decision and
// the outcome classification are pure functions of that seed, so any
// trial replays exactly with CampaignRunner::run_trial(seed).
//
// The aggregate result carries per-outcome counts, a recovery-time
// histogram, and a measured-vs-Section-III-model efficiency cross-check,
// all serializable into a telemetry RunReport.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "vmem/protection.hpp"

namespace nvmcp::fault {

enum class TrialOutcome : std::uint8_t {
  kNoFault,
  kRecoveredLocal,
  kRecoveredRemote,
  kParityRebuild,
  kStaleEpoch,
  kDetectedCorruption,
  kUndetectedLoss,
};
const char* to_string(TrialOutcome o);
constexpr int kTrialOutcomeCount = 7;

struct CampaignSpec {
  int trials = 50;
  std::uint64_t seed = 0xc4a59;
  int threads = 0;  // 0 = hardware concurrency

  // Emulated node shape (per trial).
  int ranks = 2;
  int chunks_per_rank = 3;
  std::size_t chunk_bytes = 64 * KiB;
  int iterations = 12;
  int iters_per_checkpoint = 3;
  /// Logical compute seconds one iteration stands for. Fault-plan times,
  /// lost-work and efficiency accounting all use this clock, never wall
  /// time, so outcomes are machine-independent.
  double iteration_seconds = 5.0;

  // Redundancy policy: full buddy replication (default) or an RS parity
  // group with `parity_shards` parities over the ranks.
  bool use_parity = false;
  int parity_shards = 1;

  // Logical device/link speeds (Section III model cross-check + logical
  // restart-time accounting; trial devices run unthrottled for speed).
  double nvm_bw_core = 400.0 * MiB;
  double link_bw = 5.0e9;

  /// Dirty-tracking mode for every trial chunk. kSoftware keeps trials
  /// hermetic to signal handling; kWriteLog switches the compute phase to
  /// small logged stores so sub-page range commits are chaos-tested: a
  /// dropped or mis-ordered range surfaces as undetected loss.
  vmem::TrackMode track_mode = vmem::TrackMode::kSoftware;

  /// Copier workers for each trial's CheckpointManagers
  /// (CheckpointConfig::copy_threads). >1 runs commits and restores on
  /// concurrent copiers under fault injection.
  /// Note the injector's RNG draw order then depends on thread
  /// interleaving, so replay determinism of individual fault *points* is
  /// relaxed; outcome invariants (no undetected loss) must hold
  /// regardless.
  std::size_t copy_threads = 1;

  /// Version-ring depth for every trial allocator. Depth N retains the
  /// last N committed epochs (N+1 between commits), so a corrupted newest
  /// epoch can roll back locally instead of relying on the buddy store;
  /// depth 1 (a two-slot ring) rolls back one epoch at most.
  int ring_depth = 1;

  /// Run trials without any remote protection (no replication, no
  /// parity): recovery has exactly the local NVM -- newest epoch first,
  /// then the version ring. Isolates ring-rollback behavior from the
  /// remote fallback that would otherwise mask it.
  bool local_only = false;

  /// Soft-crash trials only: corrupt (bit-flip) the victim's N newest
  /// retained epochs per chunk at crash time, newest-first. With a ring
  /// of depth >= N+1 a correct recovery must come back at epoch k-N --
  /// the directed recover-to-epoch-k-2 scenario uses N=2.
  int corrupt_newest_epochs = 0;

  /// Fault rates. horizon and ranks are overwritten by the runner to
  /// match the workload; everything else is caller-controlled.
  FaultPlan::GenSpec faults;

  Json to_json() const;
};

struct TrialResult {
  int index = -1;
  std::uint64_t seed = 0;  // replay handle: run_trial(seed)
  TrialOutcome outcome = TrialOutcome::kNoFault;
  std::string detail;      // one-line human note on the classification

  FaultPlan plan;
  int faults_fired = 0;
  double crash_seconds = -1;  // logical; -1 = crash-free trial
  int victim_rank = -1;
  std::uint64_t committed_epoch = 0;  // last epoch committed pre-crash
  std::int64_t restored_epoch = -1;   // epoch verified after recovery
                                      // (-2 = chunks at mixed epochs)

  /// Remote-cut health (replication trials). Every coordination round's
  /// degraded/stale report is cross-checked against the buddy store's
  /// committed epochs; a mismatch means the library claimed a remote cut
  /// it does not have (always a bug, classified kUndetectedLoss).
  bool remote_degraded = false;       // some round completed degraded
  int degraded_coordinations = 0;
  int remote_stale_chunks = 0;        // stale count after the last round
  bool remote_cut_verified = true;    // reports matched store ground truth
  /// The last coordination round before the crash (or the horizon) was
  /// not degraded and left no chunk stale.
  bool last_round_converged = false;

  double recovery_wall_seconds = 0;   // measured restart-path time
  std::uint64_t bytes_local = 0;
  std::uint64_t bytes_remote = 0;
  std::uint64_t bytes_parity = 0;
  /// Ring mode: chunks that recovered from an older retained epoch after
  /// the newest failed verification (RestartReport::chunks_rolled_back).
  int chunks_rolled_back = 0;
  std::uint64_t rollback_epoch = 0;   // oldest epoch rolled back to (0=none)
  std::size_t pages_scrambled = 0;    // soft-crash unflushed scramble
  InjectorStats injector;

  /// Logical cost accounting for the efficiency cross-check.
  double logical_total_seconds = 0;   // compute + ckpt + rework + restart
  double logical_efficiency = 0;      // horizon / logical_total

  Json to_json() const;
};

struct CampaignResult {
  std::vector<TrialResult> trials;
  int outcome_counts[kTrialOutcomeCount] = {};
  int undetected_losses = 0;  // == outcome_counts[kUndetectedLoss]

  /// Mean logical efficiency across trials vs the paper's Section III
  /// analytical model evaluated on matching parameters.
  double measured_efficiency = 0;
  double model_efficiency = 0;
  double efficiency_ratio = 0;  // measured / model

  /// "campaign.*" counters/gauges plus the recovery-time histogram.
  std::shared_ptr<telemetry::MetricRegistry> metrics;

  int count(TrialOutcome o) const {
    return outcome_counts[static_cast<int>(o)];
  }

  /// Serialize config/outcomes/cross-check/trials into `rep`.
  void fill_report(const CampaignSpec& spec,
                   telemetry::RunReport& rep) const;
};

/// Cross-tenant chaos trial (multi-tenant arena): tenant A hard-crashes
/// mid-commit while tenant B commits and tenant C streams a restore, all
/// against ONE shared arena. Isolation means A's death is invisible to
/// its neighbours: B's and C's bytes must verify exactly, and A must
/// recover through the normal restart walk with every chunk at its last
/// or second-to-last committed epoch (never garbage).
struct CrossTenantSpec {
  std::uint64_t seed = 0xfee1;
  int chunks_per_tenant = 4;
  std::size_t chunk_bytes = 64 * KiB;
  /// Fully-committed rounds before the chaos round (the goldens).
  int warm_rounds = 2;
  int ring_depth = 4;
  /// Per-tenant version-slot quota; 0 = unmetered.
  std::size_t quota_bytes = 0;
  /// Chunks A commits in the chaos round before dying; the rest are
  /// pre-copied into in-progress slots but never flipped (the mid-commit
  /// crash point).
  int crash_prefix = 2;
};

struct CrossTenantResult {
  bool ok = false;
  std::string detail;         // one-line failure note ("" when ok)
  int b_mismatches = 0;       // B chunks whose committed bytes diverged
  int c_mismatches = 0;       // C chunks mis-restored by the stream
  int a_restored_latest = 0;  // A chunks back at the crash-round epoch
  int a_restored_stale = 0;   // A chunks back at the prior epoch
  int a_failed = 0;           // A chunks matching NO committed golden
  double b_commit_seconds = 0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignSpec spec);

  /// Run one cross-tenant chaos trial (see CrossTenantSpec). Deterministic
  /// in `spec.seed` up to thread interleaving; the isolation invariants
  /// must hold under every interleaving.
  static CrossTenantResult run_cross_tenant(const CrossTenantSpec& spec);

  /// SplitMix-style child seed for trial `index` under `root`: any failed
  /// trial is replayable from its own seed without re-running the sweep.
  static std::uint64_t trial_seed(std::uint64_t root, int index);

  /// Execute every trial (parallel over common/thread_pool) + aggregate.
  CampaignResult run();

  /// Execute or replay a single trial. Pure function of `seed` (plus the
  /// campaign spec): same seed => same plan, same outcome classification.
  TrialResult run_trial(std::uint64_t seed) const;

  const CampaignSpec& spec() const { return spec_; }

 private:
  CampaignSpec spec_;
};

}  // namespace nvmcp::fault
