#include "fault/campaign.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "alloc/nvmalloc.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/manager.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"
#include "ecc/parity_group.hpp"
#include "epoch/directory.hpp"
#include "epoch/version_ring.hpp"
#include "model/model.hpp"
#include "net/interconnect.hpp"
#include "net/remote_memory.hpp"
#include "nvm/device.hpp"
#include "tenant/arena.hpp"
#include "vmem/container.hpp"

namespace nvmcp::fault {

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t st = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return splitmix64(st);
}

/// Deterministic content for one (iteration, rank, chunk) triple. The
/// workload's entire memory state is a pure function of the trial seed, so
/// golden snapshots and replays agree bit-for-bit.
void fill_pattern(std::byte* p, std::size_t n, std::uint64_t seed) {
  std::uint64_t st = seed;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = splitmix64(st);
    std::memcpy(p + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = splitmix64(st);
    std::memcpy(p + i, &w, n - i);
  }
}

std::size_t device_capacity_for(std::size_t payload_bytes,
                                std::size_t slots_per_chunk = 2) {
  // `slots_per_chunk` version slots per chunk (ring depth + 1) plus the
  // metadata region; round to MiB so the arena is page-aligned whatever
  // the chunk geometry.
  const std::size_t raw = payload_bytes * slots_per_chunk + 8 * MiB;
  return (raw + MiB - 1) / MiB * MiB;
}

struct GoldenEpoch {
  std::uint64_t epoch = 0;
  std::vector<std::byte> bytes;
};

/// One emulated rank: device + container + allocator + manager + chunks.
struct RankNode {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

}  // namespace

const char* to_string(TrialOutcome o) {
  switch (o) {
    case TrialOutcome::kNoFault: return "no-fault";
    case TrialOutcome::kRecoveredLocal: return "recovered-local";
    case TrialOutcome::kRecoveredRemote: return "recovered-remote";
    case TrialOutcome::kParityRebuild: return "parity-rebuild";
    case TrialOutcome::kStaleEpoch: return "stale-epoch";
    case TrialOutcome::kDetectedCorruption: return "detected-corruption";
    case TrialOutcome::kUndetectedLoss: return "undetected-loss";
  }
  return "?";
}

Json CampaignSpec::to_json() const {
  Json j = Json::object();
  j["trials"] = trials;
  j["seed"] = seed;
  j["threads"] = threads;
  j["copy_threads"] = static_cast<std::uint64_t>(copy_threads);
  j["ranks"] = ranks;
  j["chunks_per_rank"] = chunks_per_rank;
  j["chunk_bytes"] = static_cast<std::uint64_t>(chunk_bytes);
  j["iterations"] = iterations;
  j["iters_per_checkpoint"] = iters_per_checkpoint;
  j["iteration_seconds"] = iteration_seconds;
  j["use_parity"] = use_parity;
  j["parity_shards"] = parity_shards;
  j["nvm_bw_core"] = nvm_bw_core;
  j["link_bw"] = link_bw;
  j["ring_depth"] = ring_depth;
  j["local_only"] = local_only;
  j["corrupt_newest_epochs"] = corrupt_newest_epochs;
  Json f = Json::object();
  f["mtbf_soft"] = faults.mtbf_soft;
  f["mtbf_hard"] = faults.mtbf_hard;
  f["torn_write_rate"] = faults.torn_write_rate;
  f["bit_flip_rate"] = faults.bit_flip_rate;
  f["outage_rate"] = faults.outage_rate;
  f["outage_duration"] = faults.outage_duration;
  f["degrade_rate"] = faults.degrade_rate;
  f["degrade_duration"] = faults.degrade_duration;
  f["degrade_factor"] = faults.degrade_factor;
  f["helper_stall_rate"] = faults.helper_stall_rate;
  f["helper_stall_duration"] = faults.helper_stall_duration;
  f["helper_kill_rate"] = faults.helper_kill_rate;
  j["faults"] = std::move(f);
  return j;
}

Json TrialResult::to_json() const {
  Json j = Json::object();
  j["index"] = index;
  j["seed"] = seed;
  j["outcome"] = to_string(outcome);
  j["detail"] = detail;
  j["faults_fired"] = faults_fired;
  j["crash_seconds"] = crash_seconds;
  j["victim_rank"] = victim_rank;
  j["committed_epoch"] = committed_epoch;
  j["restored_epoch"] = static_cast<double>(restored_epoch);
  j["recovery_wall_seconds"] = recovery_wall_seconds;
  j["bytes_local"] = bytes_local;
  j["bytes_remote"] = bytes_remote;
  j["bytes_parity"] = bytes_parity;
  j["chunks_rolled_back"] = chunks_rolled_back;
  j["rollback_epoch"] = rollback_epoch;
  j["pages_scrambled"] = static_cast<std::uint64_t>(pages_scrambled);
  j["remote_degraded"] = remote_degraded;
  j["degraded_coordinations"] = degraded_coordinations;
  j["remote_stale_chunks"] = remote_stale_chunks;
  j["remote_cut_verified"] = remote_cut_verified;
  j["last_round_converged"] = last_round_converged;
  j["logical_total_seconds"] = logical_total_seconds;
  j["logical_efficiency"] = logical_efficiency;
  j["plan"] = plan.to_json();
  return j;
}

void CampaignResult::fill_report(const CampaignSpec& spec,
                                 telemetry::RunReport& rep) const {
  rep.config() = spec.to_json();
  Json& out = rep.section("outcomes");
  for (int i = 0; i < kTrialOutcomeCount; ++i) {
    out[to_string(static_cast<TrialOutcome>(i))] = outcome_counts[i];
  }
  Json& mc = rep.section("model_cross_check");
  mc["measured_efficiency"] = measured_efficiency;
  mc["model_efficiency"] = model_efficiency;
  mc["efficiency_ratio"] = efficiency_ratio;
  mc["undetected_losses"] = undetected_losses;
  if (metrics) rep.add_metrics(*metrics);
  Json arr = Json::array();
  for (const TrialResult& t : trials) arr.push_back(t.to_json());
  rep.root()["trials"] = std::move(arr);
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(spec) {}

std::uint64_t CampaignRunner::trial_seed(std::uint64_t root, int index) {
  std::uint64_t state =
      root + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

TrialResult CampaignRunner::run_trial(std::uint64_t seed) const {
  const CampaignSpec& s = spec_;
  TrialResult tr;
  tr.seed = seed;
  const double horizon = s.iterations * s.iteration_seconds;

  // Independent sub-seeds (fixed derivation order = part of the contract).
  std::uint64_t st = seed;
  const std::uint64_t plan_seed = splitmix64(st);
  const std::uint64_t inj_seed = splitmix64(st);
  const std::uint64_t data_seed = splitmix64(st);
  const std::uint64_t crash_seed = splitmix64(st);

  FaultPlan::GenSpec gs = s.faults;
  gs.horizon = horizon;
  gs.ranks = s.ranks;
  tr.plan = FaultPlan::generate(gs, plan_seed);

  FaultInjector inj;
  inj.arm(inj_seed);

  // --- build the emulated node ----------------------------------------
  const std::size_t per_rank_payload = s.chunks_per_rank * s.chunk_bytes;
  // A ring holds up to depth committed epochs plus one in-progress slot
  // per chunk, so the arena must be sized for depth+1 payload regions.
  const std::size_t slots_per_chunk =
      static_cast<std::size_t>(std::max(2, s.ring_depth + 1));
  NvmConfig dcfg;
  dcfg.capacity = device_capacity_for(per_rank_payload, slots_per_chunk);
  dcfg.throttle = false;   // trials run on the logical clock, not wall time
  dcfg.track_wear = false;

  std::vector<RankNode> node(s.ranks);
  std::vector<core::CheckpointManager*> mgrs;
  for (int r = 0; r < s.ranks; ++r) {
    RankNode& rn = node[r];
    rn.dev = std::make_unique<NvmDevice>(dcfg);
    rn.dev->set_fault_injector(&inj);
    rn.cont = std::make_unique<vmem::Container>(*rn.dev);
    alloc::ChunkAllocator::Options aopts;
    aopts.track_mode = s.track_mode;
    // Pin the depth explicitly (spec default 1, a two-slot ring) so env
    // knobs never leak into trials and replays agree.
    aopts.ring_depth = std::max(1, s.ring_depth);
    rn.alloc = std::make_unique<alloc::ChunkAllocator>(*rn.cont, aopts);
    core::CheckpointConfig ccfg;
    ccfg.local_policy = core::PrecopyPolicy::kNone;
    ccfg.nvm_bw_per_core = 0;  // unthrottled (logical costs are modeled)
    ccfg.copy_threads = s.copy_threads;
    ccfg.rank = static_cast<std::uint32_t>(r);
    rn.mgr = std::make_unique<core::CheckpointManager>(*rn.alloc, ccfg);
    for (int j = 0; j < s.chunks_per_rank; ++j) {
      rn.chunks.push_back(rn.alloc->nvalloc("campaign_chunk" + std::to_string(j),
                                            s.chunk_bytes, true));
    }
    mgrs.push_back(rn.mgr.get());
  }

  const int pseudo_ranks = s.use_parity ? s.parity_shards : 0;
  NvmConfig scfg;
  scfg.capacity =
      device_capacity_for(per_rank_payload * (s.ranks + pseudo_ranks));
  scfg.throttle = false;
  scfg.track_wear = false;
  net::RemoteStore store(scfg);
  store.set_fault_injector(&inj);
  net::Interconnect link(s.link_bw, /*timeline_bucket_sec=*/0.25);
  link.set_fault_injector(&inj);
  net::RemoteMemory rmem(link, store);

  std::unique_ptr<core::RemoteCheckpointer> repl;
  std::unique_ptr<ecc::ParityCheckpointGroup> parity;
  if (s.local_only) {
    // No remote protection of any kind: recovery has exactly the local
    // NVM, so ring rollback is the only fallback past the newest epoch.
  } else if (s.use_parity) {
    parity = std::make_unique<ecc::ParityCheckpointGroup>(mgrs, rmem,
                                                          s.parity_shards);
  } else {
    core::RemoteConfig rcfg;
    rcfg.policy = core::PrecopyPolicy::kNone;
    rcfg.interval = 1e9;  // rounds are driven synchronously, never by time
    // Pin the retry policy: the attempt counts (not wall time) must bound
    // retries so replays agree, env knobs must not leak into trials, and
    // backoff sleeps stay negligible against the logical clock.
    rcfg.retry_from_env = false;
    rcfg.retry.max_attempts = 2;
    rcfg.retry.phase2_attempts = 1;
    rcfg.retry.put_deadline = 5.0;  // generous; attempts are the bound
    rcfg.retry.backoff_base = 1e-4;
    rcfg.retry.backoff_max = 1e-3;
    rcfg.retry.round_budget = 0.05;
    repl = std::make_unique<core::RemoteCheckpointer>(mgrs, rmem, rcfg);
    repl->set_fault_injector(&inj);
  }

  // The victim is fixed by the plan, so golden snapshots are only kept for
  // its rank (one byte-copy per chunk per committed epoch).
  const FaultEvent* crash = tr.plan.crash();
  int victim = -1;
  if (crash) {
    victim = crash->rank;
    if (victim < 0 || victim >= s.ranks) {
      victim = static_cast<int>(inj.pick(s.ranks));
    }
  }
  std::vector<std::vector<GoldenEpoch>> golden(s.chunks_per_rank);

  // --- workload loop on the logical clock ------------------------------
  struct Window {
    double end;
    FaultType type;
    double factor;
  };
  std::vector<Window> windows;
  auto refresh_knobs = [&](double now) {
    windows.erase(std::remove_if(windows.begin(), windows.end(),
                                 [&](const Window& w) { return w.end <= now; }),
                  windows.end());
    bool outage = false, stall = false;
    double degrade = 1.0;
    for (const Window& w : windows) {
      if (w.type == FaultType::kLinkOutage) outage = true;
      if (w.type == FaultType::kHelperStall) stall = true;
      if (w.type == FaultType::kLinkDegrade) {
        degrade = std::max(degrade, w.factor);
      }
    }
    inj.set_outage(outage);
    inj.set_helper_stalled(stall);
    inj.set_link_degrade_factor(degrade);
  };

  // Every coordination round's self-report is checked against the buddy
  // store's ground truth: the set of chunks whose remote committed epoch
  // lags the local cut must be exactly what the outcome claims. A round
  // that under-reports has silently lost remote protection.
  auto note_coordination = [&](const core::CoordinationOutcome& co) {
    if (co.degraded || co.helper_dead) {
      tr.remote_degraded = tr.remote_degraded || co.degraded;
      if (co.degraded) ++tr.degraded_coordinations;
    }
    tr.remote_stale_chunks = co.stale_chunks;
    tr.last_round_converged = !co.degraded && co.stale_chunks == 0;
    int actually_stale = 0;
    for (int r = 0; r < s.ranks; ++r) {
      for (alloc::Chunk* c : node[r].chunks) {
        const auto acked = node[r].alloc->acknowledged(*c);
        if (!acked) continue;
        if (store.committed_epoch(static_cast<std::uint32_t>(r), c->id()) !=
            acked->epoch) {
          ++actually_stale;
        }
      }
    }
    if (actually_stale != co.stale_chunks ||
        co.degraded != (actually_stale > 0)) {
      tr.remote_cut_verified = false;
    }
  };

  const auto& events = tr.plan.events();
  std::size_t next_event = 0;
  bool torn_pending = false;
  bool crashed = false;
  double crash_at = 0;
  FaultType crash_type = FaultType::kSoftCrash;
  double last_commit_t = 0;

  for (int iter = 0; iter < s.iterations && !crashed; ++iter) {
    const double t0 = iter * s.iteration_seconds;
    const double t1 = t0 + s.iteration_seconds;
    refresh_knobs(t0);

    while (next_event < events.size() &&
           events[next_event].at_seconds < t1) {
      const FaultEvent& ev = events[next_event++];
      ++tr.faults_fired;
      if (is_crash(ev.type)) {
        crashed = true;
        crash_at = ev.at_seconds;
        crash_type = ev.type;
        break;
      }
      switch (ev.type) {
        case FaultType::kTornWrite:
          // Arms the write hook for the *next* checkpoint round, then the
          // campaign disarms it (one interrupted checkpoint, not a trend).
          inj.set_torn_write_rate(1.0);
          torn_pending = true;
          break;
        case FaultType::kBitFlip: {
          const int r = (ev.rank >= 0 && ev.rank < s.ranks)
                            ? ev.rank
                            : static_cast<int>(inj.pick(s.ranks));
          RankNode& rn = node[r];
          alloc::Chunk* c =
              rn.chunks[inj.pick(rn.chunks.size())];
          if (const auto acked = rn.alloc->acknowledged(*c)) {
            inj.flip_random_bit(rn.dev->data() + acked->off, c->size());
          }
          break;
        }
        case FaultType::kLinkOutage:
          inj.set_outage(true);
          windows.push_back({ev.at_seconds + ev.duration, ev.type, 1.0});
          break;
        case FaultType::kLinkDegrade:
          inj.set_link_degrade_factor(
              std::max(inj.link_degrade_factor(), ev.factor));
          windows.push_back({ev.at_seconds + ev.duration, ev.type,
                             ev.factor});
          break;
        case FaultType::kHelperStall:
          inj.set_helper_stalled(true);
          windows.push_back({ev.at_seconds + ev.duration, ev.type, 1.0});
          break;
        case FaultType::kHelperKill:
          inj.kill_helper();
          break;
        default:
          break;
      }
    }
    if (crashed) break;

    // Compute phase. The default shape rewrites every chunk wholesale;
    // under kWriteLog (past the initializing iteration) the ranks instead
    // perform a burst of small stores, each logged after the bytes land
    // (store-then-log), so the commit path must reconstruct DRAM exactly
    // from sub-page ranges alone -- a dropped range fails the golden
    // byte-compare as undetected loss.
    for (int r = 0; r < s.ranks; ++r) {
      for (int j = 0; j < s.chunks_per_rank; ++j) {
        alloc::Chunk* c = node[r].chunks[j];
        auto* data = static_cast<std::byte*>(c->data());
        const std::uint64_t cseed =
            mix(mix(data_seed, static_cast<std::uint64_t>(iter)),
                static_cast<std::uint64_t>(r) * 131071u +
                    static_cast<std::uint64_t>(j));
        if (s.track_mode == vmem::TrackMode::kWriteLog && iter > 0) {
          std::uint64_t st = cseed;
          for (int w = 0; w < 16; ++w) {
            const std::uint64_t draw = splitmix64(st);
            const std::size_t span = 64 + (draw % 4) * 64;  // 64..256 B
            const std::size_t off =
                ((draw >> 8) % (c->size() - span)) & ~std::size_t{7};
            fill_pattern(data + off, span, mix(cseed, draw));
            c->log_write(off, span);
          }
        } else {
          fill_pattern(data, c->size(), cseed);
          c->notify_write();
        }
      }
    }

    // Coordinated checkpoint + replication/parity at the cadence.
    if ((iter + 1) % s.iters_per_checkpoint == 0) {
      for (int r = 0; r < s.ranks; ++r) node[r].mgr->nvchkptall();
      if (torn_pending) {
        inj.set_torn_write_rate(0.0);
        torn_pending = false;
      }
      if (parity) {
        // protect_epoch plays the helper role here, so it honors the same
        // stall/kill semantics as the replicating helper's send path.
        if (!inj.helper_killed() && !inj.helper_send_blocked()) {
          parity->protect_epoch();
        }
      } else if (repl) {
        note_coordination(repl->coordinate_now());
      }
      last_commit_t = t1;
      if (victim >= 0) {
        const std::uint64_t ep = node[victim].mgr->committed_epoch();
        for (int j = 0; j < s.chunks_per_rank; ++j) {
          alloc::Chunk* c = node[victim].chunks[j];
          GoldenEpoch g;
          g.epoch = ep;
          g.bytes.assign(static_cast<const std::byte*>(c->data()),
                         static_cast<const std::byte*>(c->data()) + c->size());
          golden[j].push_back(std::move(g));
        }
      }
    }
  }

  tr.crash_seconds = crashed ? crash_at : -1.0;
  tr.victim_rank = crashed ? victim : -1;

  // Logical cost accounting (shared by both exits).
  const double t_ckpt =
      s.nvm_bw_core > 0 ? per_rank_payload / s.nvm_bw_core : 0.0;
  const int n_ckpt_full = s.iterations / std::max(1, s.iters_per_checkpoint);
  double logical_total = horizon + n_ckpt_full * t_ckpt;

  if (!crashed) {
    if (repl) {
      // Seal + verify the final remote cut: any outage/stall that degraded
      // an earlier round must either have converged by now or be reported
      // degraded here -- a silently stale cut is a library bug.
      refresh_knobs(horizon);
      note_coordination(repl->coordinate_now());
    }
    if (!tr.remote_cut_verified) {
      tr.outcome = TrialOutcome::kUndetectedLoss;
      tr.detail = "remote cut silently stale -- library bug";
    } else {
      tr.outcome = TrialOutcome::kNoFault;
      tr.detail = tr.remote_degraded
                      ? "no crash; transient remote degradation, reported"
                      : "no crash within the horizon";
    }
    tr.logical_total_seconds = logical_total;
    tr.logical_efficiency = horizon / logical_total;
    tr.injector = inj.stats();
    return tr;
  }

  // --- apply the crash --------------------------------------------------
  RankNode& vs = node[victim];
  tr.committed_epoch = vs.mgr->committed_epoch();
  Rng crash_rng(crash_seed);
  auto corrupt_region = [&](std::uint64_t off, std::size_t size) {
    if (off == 0) return;  // unallocated slot, not device offset 0
    std::byte* p = vs.dev->data() + off;
    const std::size_t n = std::min<std::size_t>(size, 256);
    for (std::size_t i = 0; i < n; ++i) p[i] ^= std::byte{0xA5};
  };
  if (crash_type == FaultType::kSoftCrash) {
    tr.pages_scrambled = vs.dev->simulate_crash(crash_rng);
    if (s.corrupt_newest_epochs > 0) {
      // Directed scenario: the N newest retained epochs are corrupt in
      // place, so a correct recovery must surface at epoch k-N, or fall
      // through to remote/failure when the ring retains no more than N.
      for (alloc::Chunk* c : vs.chunks) {
        const auto epochs = vs.alloc->retained_epochs(*c);
        epoch::VersionRing* ring = vs.alloc->epoch_directory()->ring(c->id());
        const std::size_t n =
            std::min<std::size_t>(epochs.size(),
                                  static_cast<std::size_t>(
                                      s.corrupt_newest_epochs));
        for (std::size_t i = 0; i < n; ++i) {
          epoch::RingSlot slot;
          if (ring->find_epoch(epochs[i], &slot)) {
            corrupt_region(slot.off, c->size());
          }
        }
      }
    }
  } else {
    // Node loss: the local NVM contents are gone. Corrupt every allocated
    // ring slot of every chunk (wiping the arena would also destroy the
    // vmem metadata that the still-live allocator points into).
    for (alloc::Chunk* c : vs.chunks) {
      epoch::VersionRing* ring = vs.alloc->epoch_directory()->ring(c->id());
      for (const epoch::RingSlot& slot : ring->snapshot_slots()) {
        corrupt_region(slot.off, c->size());
      }
    }
  }
  // Either way the process restarts: DRAM working buffers are lost.
  for (alloc::Chunk* c : vs.chunks) {
    std::memset(c->data(), 0xDD, c->size());
  }

  // --- recover ----------------------------------------------------------
  core::RestartCoordinator::Options ropts;
  if (parity) {
    ropts.parity_rebuild = [&]() {
      return parity->recover_ranks({static_cast<std::size_t>(victim)});
    };
  }
  if (repl) {
    // The victim's replication health at crash time steers the hard path:
    // an isolated buddy is suspect, parity (when present) goes first.
    ropts.buddy_health = repl->health(static_cast<std::size_t>(victim));
  }
  core::RestartCoordinator rc(*vs.mgr, s.local_only ? nullptr : &rmem,
                              ropts);
  const core::RestartReport rep = rc.restart_after(
      crash_type == FaultType::kSoftCrash ? core::FailureKind::kSoft
                                          : core::FailureKind::kHard);
  tr.recovery_wall_seconds = rep.seconds;
  tr.bytes_local = rep.bytes_local;
  tr.bytes_remote = rep.bytes_remote;
  tr.bytes_parity = rep.bytes_parity;
  tr.chunks_rolled_back = rep.chunks_rolled_back;
  tr.rollback_epoch = rep.rollback_epoch;

  // --- verify + classify ------------------------------------------------
  bool any_unmatched = false;
  bool mixed = false;
  std::int64_t common_epoch = -1;
  for (int j = 0; j < s.chunks_per_rank; ++j) {
    const auto* dram = static_cast<const std::byte*>(vs.chunks[j]->data());
    std::int64_t matched = -1;
    for (auto it = golden[j].rbegin(); it != golden[j].rend(); ++it) {
      if (std::memcmp(dram, it->bytes.data(), it->bytes.size()) == 0) {
        matched = static_cast<std::int64_t>(it->epoch);
        break;
      }
    }
    if (matched < 0) {
      any_unmatched = true;
    } else if (common_epoch < 0) {
      common_epoch = matched;
    } else if (common_epoch != matched) {
      mixed = true;
    }
  }

  if (rep.chunks_failed > 0 || rep.status == RestoreStatus::kNoData ||
      rep.status == RestoreStatus::kChecksumMismatch) {
    tr.outcome = TrialOutcome::kDetectedCorruption;
    tr.detail = "recovery reported failure (known data loss)";
  } else if (any_unmatched) {
    tr.outcome = TrialOutcome::kUndetectedLoss;
    tr.detail = "recovery claimed success but bytes match no committed "
                "epoch -- library bug";
  } else if (mixed) {
    tr.restored_epoch = -2;
    tr.outcome = TrialOutcome::kStaleEpoch;
    tr.detail = "chunks restored at mixed committed epochs";
  } else {
    tr.restored_epoch = common_epoch;
    if (common_epoch ==
        static_cast<std::int64_t>(tr.committed_epoch)) {
      if (rep.chunks_parity > 0) {
        tr.outcome = TrialOutcome::kParityRebuild;
        tr.detail = "latest epoch reconstructed via RS parity";
      } else if (rep.chunks_remote > 0) {
        tr.outcome = TrialOutcome::kRecoveredRemote;
        tr.detail = "latest epoch with buddy-store fetches";
      } else {
        tr.outcome = TrialOutcome::kRecoveredLocal;
        tr.detail = "latest epoch entirely from local NVM";
      }
    } else {
      tr.outcome = TrialOutcome::kStaleEpoch;
      tr.detail = rep.chunks_rolled_back > 0
                      ? "older retained epoch via version-ring rollback "
                        "(progress lost, detectable)"
                      : "consistent but older epoch (progress lost, "
                        "detectable)";
    }
  }
  if (!tr.remote_cut_verified) {
    tr.outcome = TrialOutcome::kUndetectedLoss;
    tr.detail = "remote cut silently stale -- library bug";
  }

  // Crash trials also pay rework since the last commit plus a logical
  // restart (local reads at NVM speed, remote/parity over the link,
  // parity additionally re-reads survivors' local NVM).
  const double rework = std::max(0.0, crash_at - last_commit_t);
  double restart_logical = 0.0;
  if (s.nvm_bw_core > 0) {
    restart_logical += static_cast<double>(tr.bytes_local) / s.nvm_bw_core;
    restart_logical += static_cast<double>(tr.bytes_parity) / s.nvm_bw_core;
  }
  if (s.link_bw > 0) {
    restart_logical +=
        static_cast<double>(tr.bytes_remote + tr.bytes_parity) / s.link_bw;
  }
  logical_total += rework + restart_logical;
  tr.logical_total_seconds = logical_total;
  tr.logical_efficiency = horizon / logical_total;
  tr.injector = inj.stats();
  return tr;
}

CampaignResult CampaignRunner::run() {
  CampaignResult res;
  const int n = spec_.trials;
  res.trials.resize(static_cast<std::size_t>(std::max(0, n)));

  std::size_t threads = spec_.threads > 0
                            ? static_cast<std::size_t>(spec_.threads)
                            : std::thread::hardware_concurrency();
  if (threads == 0) threads = 4;
  threads = std::min<std::size_t>(threads,
                                  static_cast<std::size_t>(std::max(1, n)));
  {
    ThreadPool pool(threads);
    pool.parallel_for(res.trials.size(), [&](std::size_t i) {
      TrialResult t = run_trial(trial_seed(spec_.seed, static_cast<int>(i)));
      t.index = static_cast<int>(i);
      res.trials[i] = std::move(t);
    });
  }

  res.metrics = std::make_shared<telemetry::MetricRegistry>();
  telemetry::MetricRegistry& m = *res.metrics;
  telemetry::HistogramMetric& rec_hist =
      m.histogram("campaign.recovery_wall_seconds", 0.0, 0.25, 50);
  InjectorStats inj_sum;
  double eff_sum = 0;
  for (const TrialResult& t : res.trials) {
    ++res.outcome_counts[static_cast<int>(t.outcome)];
    m.counter(std::string("campaign.outcome.") + to_string(t.outcome)).add(1);
    m.counter("campaign.faults_fired")
        .add(static_cast<std::uint64_t>(t.faults_fired));
    if (t.crash_seconds >= 0) rec_hist.observe(t.recovery_wall_seconds);
    if (t.remote_degraded) m.counter("campaign.remote_degraded_trials").add(1);
    m.counter("campaign.degraded_coordinations")
        .add(static_cast<std::uint64_t>(t.degraded_coordinations));
    if (!t.remote_cut_verified) {
      m.counter("campaign.remote_cut_mismatches").add(1);
    }
    inj_sum.writes_torn += t.injector.writes_torn;
    inj_sum.bytes_scrambled += t.injector.bytes_scrambled;
    inj_sum.bits_flipped += t.injector.bits_flipped;
    inj_sum.remote_ops_dropped += t.injector.remote_ops_dropped;
    inj_sum.transfers_delayed += t.injector.transfers_delayed;
    inj_sum.helper_sends_stalled += t.injector.helper_sends_stalled;
    eff_sum += t.logical_efficiency;
  }
  m.counter("campaign.trials").add(static_cast<std::uint64_t>(res.trials.size()));
  m.counter("campaign.injector.writes_torn").add(inj_sum.writes_torn);
  m.counter("campaign.injector.bytes_scrambled").add(inj_sum.bytes_scrambled);
  m.counter("campaign.injector.bits_flipped").add(inj_sum.bits_flipped);
  m.counter("campaign.injector.remote_ops_dropped")
      .add(inj_sum.remote_ops_dropped);
  m.counter("campaign.injector.transfers_delayed")
      .add(inj_sum.transfers_delayed);
  m.counter("campaign.injector.helper_sends_stalled")
      .add(inj_sum.helper_sends_stalled);
  res.undetected_losses = res.count(TrialOutcome::kUndetectedLoss);
  res.measured_efficiency =
      res.trials.empty() ? 0.0 : eff_sum / static_cast<double>(res.trials.size());

  // Section III cross-check on matching parameters. The campaign replicates
  // (or parity-protects) after every local checkpoint, so the remote
  // interval equals the local one; trial horizons truncate at one crash, so
  // expect agreement in the large, not equality.
  model::SystemParams p;
  p.t_compute = spec_.iterations * spec_.iteration_seconds;
  p.ckpt_data =
      static_cast<double>(spec_.chunks_per_rank * spec_.chunk_bytes);
  p.comm_fraction = 0.0;
  p.nvm_bw_core = spec_.nvm_bw_core;
  p.link_bw = spec_.link_bw;
  p.local_interval = spec_.iters_per_checkpoint * spec_.iteration_seconds;
  p.remote_interval = p.local_interval;
  p.mtbf_local = spec_.faults.mtbf_soft > 0 ? spec_.faults.mtbf_soft : 1e18;
  p.mtbf_remote = spec_.faults.mtbf_hard > 0 ? spec_.faults.mtbf_hard : 1e18;
  p.precopy = false;
  res.model_efficiency = model::evaluate(p).efficiency;
  res.efficiency_ratio = res.model_efficiency > 0
                             ? res.measured_efficiency / res.model_efficiency
                             : 0.0;
  m.gauge("campaign.measured_efficiency").set(res.measured_efficiency);
  m.gauge("campaign.model_efficiency").set(res.model_efficiency);
  m.gauge("campaign.efficiency_ratio").set(res.efficiency_ratio);
  return res;
}

CrossTenantResult CampaignRunner::run_cross_tenant(
    const CrossTenantSpec& spec) {
  CrossTenantResult res;
  const int n = std::max(1, spec.chunks_per_tenant);
  const std::size_t bytes = std::max<std::size_t>(spec.chunk_bytes, 4096);
  const int prefix = std::min(std::max(spec.crash_prefix, 0), n);

  tenant::TenantArena::Options aopts;
  aopts.device.capacity = round_up(
      3 * static_cast<std::size_t>(n) * bytes *
              (static_cast<std::size_t>(std::max(2, spec.ring_depth)) + 2) +
          16 * MiB,
      kNvmPageSize);
  aopts.device.throttle = false;
  aopts.ring_depth = spec.ring_depth;
  aopts.max_inflight = 3;  // the trial wants all three rounds overlapping
  aopts.scheduler_bw = 0;  // unlimited: this trial tests crash isolation
  tenant::TenantArena arena(aopts);

  auto make_tenant = [&](const char* name,
                         int prio) -> tenant::TenantHandle* {
    tenant::TenantSpec ts;
    ts.name = name;
    ts.priority = prio;
    ts.quota_bytes = spec.quota_bytes;
    ts.track_mode = vmem::TrackMode::kSoftware;
    // No background engine: the trial controls every copy explicitly.
    // Four copiers shard each commit and restore walk, so the trial also
    // race-checks concurrent copiers against the crash.
    ts.ckpt.local_policy = core::PrecopyPolicy::kNone;
    ts.ckpt.copy_threads = 4;
    return &arena.create_tenant(ts);
  };
  tenant::TenantHandle* ta = make_tenant("chaos-a", 0);
  tenant::TenantHandle* tb = make_tenant("chaos-b", 2);
  tenant::TenantHandle* tc = make_tenant("chaos-c", 1);

  struct TenantState {
    std::vector<alloc::Chunk*> chunks;
    std::vector<std::vector<std::byte>> prev;  // last fully-committed round
    std::vector<std::vector<std::byte>> next;  // chaos-round content
  };
  TenantState sa, sb, sc;
  auto var = [](int i) { return "v" + std::to_string(i); };
  for (TenantState* s : {&sa, &sb, &sc}) {
    s->prev.resize(static_cast<std::size_t>(n));
    s->next.resize(static_cast<std::size_t>(n));
  }
  auto alloc_chunks = [&](tenant::TenantHandle& t, TenantState& s) {
    for (int i = 0; i < n; ++i) {
      s.chunks.push_back(t.nvalloc(var(i), bytes, /*persistent=*/true));
    }
  };
  alloc_chunks(*ta, sa);
  alloc_chunks(*tb, sb);
  alloc_chunks(*tc, sc);

  auto fill = [&](TenantState& s, std::uint64_t salt,
                  std::vector<std::vector<std::byte>>* golden) {
    for (int i = 0; i < n; ++i) {
      Rng rng(spec.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
              static_cast<std::uint64_t>(i));
      auto* p = static_cast<std::byte*>(s.chunks[static_cast<std::size_t>(i)]->data());
      for (std::size_t off = 0; off + 8 <= bytes; off += 8) {
        const std::uint64_t v = rng.next_u64();
        std::memcpy(p + off, &v, 8);
      }
      s.chunks[static_cast<std::size_t>(i)]->notify_write();
      if (golden) {
        (*golden)[static_cast<std::size_t>(i)].assign(p, p + bytes);
      }
    }
  };

  // Warm rounds: every tenant fills + commits, so each has warm_rounds
  // committed epochs banked in the shared directory before the chaos.
  const int warm = std::max(1, spec.warm_rounds);
  for (int r = 0; r < warm; ++r) {
    const bool last = r == warm - 1;
    fill(sa, static_cast<std::uint64_t>(r) + 1, last ? &sa.prev : nullptr);
    fill(sb, static_cast<std::uint64_t>(r) + 101, last ? &sb.prev : nullptr);
    fill(sc, static_cast<std::uint64_t>(r) + 201, last ? &sc.prev : nullptr);
    if (!ta->checkpoint().admitted || !tb->checkpoint().admitted ||
        !tc->checkpoint().admitted) {
      res.detail = "warm-round admission failed";
      return res;
    }
  }

  // Chaos round. A and B write fresh content; C does not write -- its DRAM
  // is scrambled (unreported, so its chunks stay clean) and must come back
  // byte-exact from its committed epoch through the restart walk.
  fill(sa, 1000, &sa.next);
  fill(sb, 2000, &sb.next);
  for (auto* c : sc.chunks) std::memset(c->data(), 0xCD, c->size());

  std::atomic<bool> b_admitted{false};
  RestoreStatus c_status = RestoreStatus::kNoData;
  std::thread thr_b([&] {
    const tenant::TenantHandle::CommitResult r = tb->checkpoint();
    b_admitted.store(r.admitted);
    res.b_commit_seconds = r.blocking;
  });
  std::thread thr_c([&] {
    c_status = core::RestartCoordinator(tc->manager(), nullptr)
                   .restart_after(core::FailureKind::kSoft)
                   .status;
  });
  std::thread thr_a([&] {
    // Mid-commit hard crash: a strict prefix of A's chunks commits, the
    // rest are pre-copied into in-progress ring slots that never flip.
    // Then the "process" dies -- no epoch bump, no cleanup.
    for (int i = 0; i < prefix; ++i) {
      ta->manager().nvchkptid(ta->chunk_id(var(i)));
    }
    const std::uint64_t epoch = ta->manager().next_epoch();
    for (int i = prefix; i < n; ++i) {
      ta->allocator().precopy_chunk(*sa.chunks[static_cast<std::size_t>(i)],
                                    epoch);
    }
  });
  thr_a.join();
  thr_b.join();
  thr_c.join();

  if (!b_admitted.load()) {
    res.detail = "B's commit round was not admitted";
    return res;
  }
  if (c_status != RestoreStatus::kOk) {
    res.detail = "C's restart walk reported failure";
    return res;
  }

  // B byte-exact: scramble the DRAM view, restore from NVM, compare
  // against the chaos-round golden.
  for (auto* c : sb.chunks) std::memset(c->data(), 0xEE, c->size());
  core::RestartCoordinator(tb->manager(), nullptr)
      .restart_after(core::FailureKind::kSoft);
  for (int i = 0; i < n; ++i) {
    const auto& g = sb.next[static_cast<std::size_t>(i)];
    if (std::memcmp(sb.chunks[static_cast<std::size_t>(i)]->data(), g.data(),
                    bytes) != 0) {
      ++res.b_mismatches;
    }
  }
  // C byte-exact: the restart walk already rebuilt the DRAM view.
  for (int i = 0; i < n; ++i) {
    const auto& g = sc.prev[static_cast<std::size_t>(i)];
    if (std::memcmp(sc.chunks[static_cast<std::size_t>(i)]->data(), g.data(),
                    bytes) != 0) {
      ++res.c_mismatches;
    }
  }

  // A recovers through the normal restart walk: tear the dead handle down
  // and re-adopt the shared container's committed state. Committed-prefix
  // chunks must be back at the crash-round content, the rest at the prior
  // round; anything else is undetected loss.
  tenant::TenantHandle& ta2 = arena.reattach_tenant("chaos-a");
  for (int i = 0; i < n; ++i) {
    alloc::Chunk* c = ta2.nvalloc(var(i), bytes, /*persistent=*/true);
    const auto& latest = sa.next[static_cast<std::size_t>(i)];
    const auto& stale = sa.prev[static_cast<std::size_t>(i)];
    if (!c->restored()) {
      ++res.a_failed;
    } else if (std::memcmp(c->data(), latest.data(), bytes) == 0) {
      ++res.a_restored_latest;
    } else if (std::memcmp(c->data(), stale.data(), bytes) == 0) {
      ++res.a_restored_stale;
    } else {
      ++res.a_failed;
    }
  }

  res.ok = res.b_mismatches == 0 && res.c_mismatches == 0 &&
           res.a_failed == 0 && res.a_restored_latest >= prefix;
  if (!res.ok && res.detail.empty()) {
    res.detail = "isolation violated: B=" + std::to_string(res.b_mismatches) +
                 " C=" + std::to_string(res.c_mismatches) +
                 " A-lost=" + std::to_string(res.a_failed);
  }
  return res;
}

}  // namespace nvmcp::fault
