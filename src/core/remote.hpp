// RemoteCheckpointer: the per-node asynchronous helper ("helper core")
// that replicates committed local-NVM checkpoints to a buddy node's NVM.
//
// The paper: "A helper asynchronous process on each physical node is
// responsible for remote checkpoints. The helper process utilizes our
// shared NVM support to access local checkpoint chunks and pre-copies by
// tracking dirty NVM chunks." Pre-copy spreads the remote transfer over
// the remote-checkpoint interval, roughly halving peak interconnect usage
// (Fig 10) and cutting the overhead a coordinated burst imposes on
// communicating applications (Fig 9).
//
// Pacing meters only the helper's unattended work: eager pre-copy and the
// helper's own timer-fired rounds send at a rate learned from the previous
// round. A caller of coordinate_now() is waiting for durability, so its
// round ships unpaced and ends every pace wait in flight; application
// traffic keeps strict priority on the shared link (net::Interconnect),
// so an unpaced round uses only idle link capacity.
//
// Consistency: eager pre-copy puts fill the remote in-progress slots only.
// A coordination round tops up stale chunks and then, holding the send
// mutex (so no eager put can land in a pair being committed) and every
// manager's commit mutex (so no local commit can interleave), re-verifies
// epochs and commits all pairs -- the remote committed cut is always some
// single moment's local committed state. Which epochs the buddy holds,
// staged or committed, is read from its records, never remembered here
// (a hard restart numbers the new node's epochs past them).
//
// Transport hardening: a put lost in transit (link outage, drop, helper
// stall) is a first-class recoverable state, not dropped work. Sends
// retry under RemoteRetryPolicy (exponential backoff with jitter, per-put
// deadline, per-round budget; phase-2 retries bounded separately so the
// commit-mutex hold time stays capped). On exhaustion the round completes
// *degraded*: the chunks whose remote cut is stale are recorded (stale()),
// the outcome says so, and the next coordination re-ships them. Each
// rank's transport health walks kHealthy -> kDegraded -> kIsolated on
// failures and recovers through a probation of successful puts; the state
// is exported through telemetry ("remote.health.rank<N>") and consulted
// by RestartCoordinator after a hard crash.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/codec_tuner.hpp"
#include "core/manager.hpp"
#include "core/restart.hpp"
#include "net/remote_memory.hpp"

namespace nvmcp::fault {
class FaultInjector;
}

namespace nvmcp::core {

/// One (rank, chunk) pair whose remote committed epoch is behind the local
/// cut after a degraded coordination round.
struct StaleChunk {
  std::uint32_t rank = 0;
  std::uint64_t chunk_id = 0;
  std::uint64_t local_epoch = 0;
  std::uint64_t remote_epoch = 0;  // 0 = never committed remotely
};

/// What one coordination round achieved. A degraded round is complete and
/// consistent (everything committed remotely is a true local cut) but the
/// remote protection of `stale_chunks` chunks lags the local epoch.
struct CoordinationOutcome {
  bool degraded = false;
  bool helper_dead = false;  // a killed helper coordinates nothing
  int stale_chunks = 0;      // chunks left remote-stale this round
  int failed_sends = 0;      // sends that exhausted their retry allowance
  int retries = 0;           // put attempts beyond the first, this round
};

class RemoteCheckpointer {
 public:
  RemoteCheckpointer(std::vector<CheckpointManager*> managers,
                     net::RemoteMemory remote, RemoteConfig cfg);
  ~RemoteCheckpointer();

  RemoteCheckpointer(const RemoteCheckpointer&) = delete;
  RemoteCheckpointer& operator=(const RemoteCheckpointer&) = delete;

  void start();
  void stop();

  /// Run one coordination round synchronously (also used by drivers to
  /// seal the final remote checkpoint). The round ships at link speed: a
  /// waiting caller is never paced, and an eager pre-copy send waiting for
  /// pace credit steps aside so the round takes the helper at once.
  /// Returns what the round achieved; callers that ignore the outcome can
  /// still observe it later through last_coordination() / stale() / the
  /// metric registry.
  CoordinationOutcome coordinate_now();

  /// Outcome of the most recent coordination round.
  CoordinationOutcome last_coordination() const;
  /// Chunks whose remote committed epoch lagged the local cut at the end
  /// of the last coordination round (empty when converged).
  std::vector<StaleChunk> stale() const;
  /// Transport health of one manager's replication path (index into the
  /// constructor's manager list).
  RemoteHealth health(std::size_t mgr_idx) const;
  /// Resolved retry policy (config + resolve_remote_retry's overrides).
  const RemoteRetryPolicy& retry_policy() const { return retry_; }

  /// This helper's metric registry ("remote.*" counters/gauges; the
  /// "remote.wall_seconds" lifetime gauge is set by stop()).
  telemetry::MetricRegistry& metrics() { return metrics_; }
  const telemetry::MetricRegistry& metrics() const { return metrics_; }
  net::RemoteMemory& remote() { return remote_; }
  const RemoteConfig& config() const { return cfg_; }

  /// Attach a fault injector (chaos campaigns): sends fail while a
  /// helper-stall window is open (and retry under the policy), and a
  /// helper-kill fault makes the background loop exit for good --
  /// coordinate_now then only reports the (degraded) state of the remote
  /// cut, and every rank's health drops to kIsolated. nullptr detaches.
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

  /// Codec mode of one manager's replication stream (its
  /// CheckpointConfig::codec_mode). kRaw ships raw frames.
  CodecMode codec_mode(std::size_t mgr_idx) const {
    return managers_[mgr_idx]->config().codec_mode;
  }

 private:
  /// How one chunk send ended (after retries, for the failure states).
  enum class SendStatus : std::uint8_t {
    kOk,                // payload delivered and staged
    kNothingCommitted,  // chunk has no committed local version, or was
                        // nvdeleted since the scan (not a failure; there
                        // is nothing to protect)
    kLocalReadFailed,   // committed local read failed verification
    kStalled,           // every attempt hit a helper stall/kill window
    kDropped,           // every attempt was lost in transit
    kDeferred,          // an eager send stepped aside for a waiting
                        // coordinate_now(); nothing was put
  };
  struct SendResult {
    SendStatus status = SendStatus::kDropped;
    int attempts = 0;  // put attempts actually made
    bool failed() const {  // a transport failure the round counts
      return status == SendStatus::kStalled || status == SendStatus::kDropped;
    }
  };

  void helper_loop();
  /// A persistent chunk with a committed version, as a scan listed it.
  struct Committed {
    alloc::Chunk* chunk;  // may dangle after the scan: see send_chunk
    std::uint64_t id;
    std::uint64_t epoch;  // acknowledged epoch at scan time
  };
  /// Manager m's committed chunks, listed under one
  /// ChunkAllocator::with_live.
  std::vector<Committed> committed_chunks(std::size_t m) const;
  /// Whether the newest frame the buddy holds for e's chunk, staged or
  /// committed, is e's epoch.
  bool buddy_holds(std::size_t m, const Committed& e);
  /// Set stale_ to the chunks of `cut` (per manager) whose epoch the buddy
  /// has not committed, and the outcome's degraded flag and stale count.
  void record_stale(const std::vector<std::vector<Committed>>& cut,
                    CoordinationOutcome& out);
  /// One coordination round. `requested` is true for coordinate_now(),
  /// whose caller waits on the result (phase 1 unpaced), and false for the
  /// helper's timer-fired rounds (phase 1 paced under pre-copy policies).
  CoordinationOutcome coordinate(bool requested);
  /// Send the committed payload of a listed chunk to the remote
  /// in-progress slot, retrying transport failures up to `max_attempts`
  /// times under the policy's backoff/deadline. The caller holds send_mu_.
  /// Only the payload read runs under ChunkAllocator::with_live, so a
  /// concurrent nvdelete never waits for the pace wait or the put; a chunk
  /// nvdeleted since the scan returns kNothingCommitted. `backoff_budget`
  /// (may be null) is the round's remaining retry-sleep allowance; sleeps
  /// draw it down and no retry sleeps once it is spent. `paced` spreads
  /// the transfer at the learned rate (pre-copy smoothing); the commit
  /// pass sends unpaced because it runs under the commit mutexes. When a
  /// paced wait is cut short, an eager send (`count_as_precopy`) returns
  /// kDeferred and a round's send goes ahead unpaced.
  SendResult send_chunk(std::size_t mgr_idx, const Committed& e,
                        bool count_as_precopy, bool paced, int max_attempts,
                        double* backoff_budget);
  /// Wait for `bytes` of pace credit. Returns false, without waiting out
  /// the credit, once a caller waits in coordinate_now() or the helper
  /// stops. Called under send_mu_; takes cv_mu_.
  bool pace_wait(std::size_t bytes);
  bool precopy_gate_open(double round_elapsed) const;

  // Health-state transitions (take health_mu_).
  void record_put_ok(std::size_t mgr_idx);
  void record_put_failure(std::size_t mgr_idx);
  void isolate_all_ranks();

  std::vector<CheckpointManager*> managers_;
  net::RemoteMemory remote_;
  RemoteConfig cfg_;
  RemoteRetryPolicy retry_;
  fault::FaultInjector* injector_ = nullptr;

  std::thread helper_;
  std::atomic<bool> running_{false};
  // cv_ wakes the helper's scan wait and every pace wait; both end early
  // on stop() and pace waits also end once waiters_ > 0.
  std::condition_variable cv_;
  std::mutex cv_mu_;
  int waiters_ = 0;  // coordinate_now() calls in flight; guarded by cv_mu_

  /// Pacing for the helper's unattended sends: eager pre-copy and the
  /// phase 1 of timer-fired rounds. Unlimited during the first remote
  /// interval (the paper's learning phase, visible as an initial peak in
  /// Fig 10); afterwards set so one interval's data spreads across ~80%
  /// of the interval, which is what cuts the peak link usage. A waiting
  /// coordinate_now() caller is never paced.
  BandwidthLimiter pace_{0.0};
  std::uint64_t bytes_at_round_start_ = 0;

  mutable std::mutex round_mu_;  // serializes coordination rounds
  std::vector<StaleChunk> stale_;        // guarded by round_mu_
  CoordinationOutcome last_outcome_;     // guarded by round_mu_

  // The helper moves one chunk at a time (the paper's single helper core):
  // send_mu_ serializes sends (each with its check of the buddy's record)
  // from the background pre-copy loop and an external coordinate_now(),
  // and guards staging_, the frame encoder, the codec tuner and the
  // jitter stream. Phase 2 holds it from its first check to its last
  // commit.
  // Lock order: round_mu_ -> send_mu_ -> commit mutexes -> allocator
  // (with_live), and send_mu_ -> cv_mu_. A send holds the allocator only
  // for its payload read, never across the pace wait or the put.
  // coordinate_now() takes cv_mu_ alone, before round_mu_, to announce
  // itself.
  std::mutex send_mu_;
  std::vector<std::byte> staging_;
  compress::FrameEncoder encoder_;
  CodecTuner tuner_;
  Rng retry_rng_{0x7e721e5};  // backoff jitter only; never affects data

  // Per-rank transport health (index == manager index).
  struct HealthSlot {
    RemoteHealth state = RemoteHealth::kHealthy;
    int consecutive_failures = 0;
    int probation_successes = 0;
    telemetry::Gauge* gauge = nullptr;  // 0 healthy / 1 degraded / 2 isolated
  };
  mutable std::mutex health_mu_;
  std::vector<HealthSlot> health_;

  // Metrics registry + cached handles (see CheckpointManager::m_).
  telemetry::MetricRegistry metrics_;
  struct {
    telemetry::Counter* coordinations;
    telemetry::Counter* bytes_sent;
    telemetry::Counter* precopy_puts;
    telemetry::Counter* coordinated_puts;
    telemetry::Counter* put_retries;
    telemetry::Counter* put_failures;
    telemetry::Counter* degraded_rounds;
    telemetry::Counter* isolations;
    telemetry::Counter* recoveries;
    telemetry::Counter* deferred_sends;
    telemetry::Counter* phase2_resends;
    telemetry::HistogramMetric* phase2_hold_seconds;
    telemetry::Gauge* busy_seconds;
    telemetry::Gauge* wall_seconds;
    telemetry::Gauge* last_round_seconds;
    telemetry::Gauge* stale_chunks;
    telemetry::Counter* codec_bytes_in;
    telemetry::Counter* codec_bytes_out;
    telemetry::Counter* codec_choice[2];  // indexed by compress::Codec
                                          // (raw, lz)
    telemetry::Gauge* codec_encode_seconds;
    telemetry::Gauge* codec_ratio;
  } m_{};
  Stopwatch wall_;
  double round_start_ = 0;  // guarded by round_mu_ once helper_ runs
};

}  // namespace nvmcp::core
