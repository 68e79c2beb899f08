// Remote checkpoint path under injected transport faults: what one
// coordination round reports (degraded/stale/retries) and what the buddy
// store actually holds, across a small scenario matrix.
//
//   baseline      no faults: every round converges, zero retries
//   outage-round  a link outage covering round 2: the round must complete
//                 *degraded* (stale chunks recorded, store untouched) and
//                 round 3 -- after the outage clears -- must re-converge
//                 the remote epoch for every chunk
//   drop-50       50% per-put loss during round 2: the retry layer wins
//                 most sends back (residual failure ~0.5^attempts), any
//                 leftovers are reported stale and converge in round 3
//   helper-stall  a stall window over round 2, same contract as the outage
//   helper-kill   the helper dies before round 2 and never returns: every
//                 later round must keep reporting the truth (degraded,
//                 helper_dead) instead of pretending the cut advanced
//   degrade-round a 4x link degradation over round 2: the round's puts
//                 are delayed block by block, and it still converges
//
// Output: console table + bench_remote_faults.csv + a RunReport JSON.
//
// --smoke: CI correctness gate. Exits 1 on any silent-stale round (report
// disagrees with the store), a missing degraded report in the faulted
// round, a failure to re-converge after the fault clears, a drop
// scenario that never retried, or a degrade round whose transfers the
// injector never delayed or that did not converge. The gates count;
// none reads a clock.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/remote.hpp"
#include "fault/injector.hpp"
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "vmem/container.hpp"

namespace nvmcp::bench {
namespace {

constexpr int kRanks = 2;
constexpr int kChunksPerRank = 4;
constexpr std::size_t kChunkBytes = 256 * KiB;
constexpr int kRounds = 4;
constexpr int kFaultRound = 2;  // fault active during this round only

enum class FaultKind { kNone, kOutage, kDrop, kStall, kKill, kDegrade };

struct Scenario {
  std::string label;
  FaultKind kind;
};

struct RoundPoint {
  int round = 0;
  bool fault_active = false;
  core::CoordinationOutcome outcome;
  int actually_stale = 0;  // store ground truth after the round
  bool truthful = false;   // report == ground truth
  std::uint64_t link_bytes = 0;  // cumulative wire bytes after this round
  std::uint64_t delayed = 0;     // link blocks the injector delayed, this round
};

/// One emulated rank (device + allocator + manager + chunks).
struct RankNode {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

/// Compressible payload (seeded word per 64-byte run) so the codec sweep
/// has something to shrink; the fault logic itself is content-agnostic.
void fill(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = (i % 64 == 0) ? rng.next_u64() : 0;
    std::memcpy(p + i, &v, 8);
  }
}

std::vector<RoundPoint> run_scenario(const Scenario& sc,
                                     core::CodecMode codec) {
  fault::FaultInjector inj;
  inj.arm(0xbf5 + static_cast<std::uint64_t>(sc.kind));

  NvmConfig dcfg;
  dcfg.capacity = 32 * MiB;
  dcfg.throttle = false;
  std::vector<RankNode> node(kRanks);
  std::vector<core::CheckpointManager*> mgrs;
  for (int r = 0; r < kRanks; ++r) {
    RankNode& rn = node[r];
    rn.dev = std::make_unique<NvmDevice>(dcfg);
    rn.cont = std::make_unique<vmem::Container>(*rn.dev);
    rn.alloc = std::make_unique<alloc::ChunkAllocator>(*rn.cont);
    core::CheckpointConfig ccfg;
    ccfg.local_policy = core::PrecopyPolicy::kNone;
    ccfg.rank = static_cast<std::uint32_t>(r);
    ccfg.codec_mode = codec;
    rn.mgr = std::make_unique<core::CheckpointManager>(*rn.alloc, ccfg);
    for (int j = 0; j < kChunksPerRank; ++j) {
      rn.chunks.push_back(rn.alloc->nvalloc(
          "fault_chunk" + std::to_string(j), kChunkBytes, true));
    }
    mgrs.push_back(rn.mgr.get());
  }

  NvmConfig scfg;
  scfg.capacity = 64 * MiB;
  scfg.throttle = false;
  net::RemoteStore store(scfg);
  store.set_fault_injector(&inj);
  net::Interconnect link(5.0e9, 0.25);
  link.set_fault_injector(&inj);
  net::RemoteMemory rmem(link, store);

  core::RemoteConfig rcfg;
  rcfg.policy = core::PrecopyPolicy::kNone;
  rcfg.retry_from_env = false;
  rcfg.retry.max_attempts = 4;  // drop-50 residual failure ~0.5^4 = 6%
  rcfg.retry.phase2_attempts = 2;
  rcfg.retry.backoff_base = 1e-4;
  rcfg.retry.backoff_max = 1e-3;
  core::RemoteCheckpointer repl(mgrs, rmem, rcfg);
  repl.set_fault_injector(&inj);

  std::vector<RoundPoint> points;
  for (int round = 1; round <= kRounds; ++round) {
    for (int r = 0; r < kRanks; ++r) {
      for (int j = 0; j < kChunksPerRank; ++j) {
        fill(*node[r].chunks[j],
             static_cast<std::uint64_t>(round * 1000 + r * 10 + j));
      }
      node[r].mgr->nvchkptall();
    }
    const bool fault_on =
        sc.kind != FaultKind::kNone &&
        (sc.kind == FaultKind::kKill ? round >= kFaultRound
                                     : round == kFaultRound);
    if (round == kFaultRound) {
      switch (sc.kind) {
        case FaultKind::kNone: break;
        case FaultKind::kOutage: inj.set_outage(true); break;
        case FaultKind::kDrop: inj.set_remote_drop_rate(0.5); break;
        case FaultKind::kStall: inj.set_helper_stalled(true); break;
        case FaultKind::kKill: inj.kill_helper(); break;
        case FaultKind::kDegrade: inj.set_link_degrade_factor(4.0); break;
      }
    }

    RoundPoint p;
    p.round = round;
    p.fault_active = fault_on;
    const std::uint64_t delayed0 = inj.stats().transfers_delayed;
    p.outcome = repl.coordinate_now();
    p.delayed = inj.stats().transfers_delayed - delayed0;
    for (int r = 0; r < kRanks; ++r) {
      for (alloc::Chunk* c : node[r].chunks) {
        const auto acked = node[r].alloc->acknowledged(*c);
        if (!acked) continue;
        if (store.committed_epoch(static_cast<std::uint32_t>(r), c->id()) !=
            acked->epoch) {
          ++p.actually_stale;
        }
      }
    }
    p.truthful = p.actually_stale == p.outcome.stale_chunks &&
                 p.outcome.degraded == (p.actually_stale > 0);
    p.link_bytes = link.stats().checkpoint_bytes;
    points.push_back(p);

    if (round == kFaultRound) {  // clear the transient faults
      inj.set_outage(false);
      inj.set_remote_drop_rate(0.0);
      inj.set_helper_stalled(false);
      inj.set_link_degrade_factor(1.0);
    }
  }
  return points;
}

int run(bool smoke) {
  telemetry::init_from_env();

  const std::vector<Scenario> scenarios = {
      {"baseline", FaultKind::kNone},
      {"outage-round", FaultKind::kOutage},
      {"drop-50", FaultKind::kDrop},
      {"helper-stall", FaultKind::kStall},
      {"helper-kill", FaultKind::kKill},
      {"degrade-round", FaultKind::kDegrade},
  };
  const std::string csv = smoke ? std::string{} : "bench_remote_faults.csv";

  telemetry::RunReport report("bench_remote_faults");
  report.config()["ranks"] = kRanks;
  report.config()["chunks_per_rank"] = kChunksPerRank;
  report.config()["chunk_bytes"] = static_cast<std::uint64_t>(kChunkBytes);
  report.config()["rounds"] = kRounds;
  report.config()["fault_round"] = kFaultRound;
  report.config()["smoke"] = smoke;
  Json& out = report.section("scenarios");

  TableWriter table(
      "Remote checkpoint path under injected transport faults\n"
      "   (coordination outcome vs buddy-store ground truth, per round, "
      "per transport codec)",
      {"scenario", "codec", "round", "fault", "degraded", "stale",
       "failed sends", "retries", "link bytes", "delayed", "truthful"},
      csv);

  bool ok = true;
  auto fail = [&](const char* what, const Scenario& sc, int round) {
    std::printf("  smoke gate FAIL: %s (scenario %s, round %d)\n", what,
                sc.label.c_str(), round);
    ok = false;
  };

  // Every scenario runs once per transport codec: the degraded/retry
  // contract is codec-independent, and the lz column shows framed rounds
  // moving fewer wire bytes under the same faults.
  const core::CodecMode codecs[] = {core::CodecMode::kRaw,
                                    core::CodecMode::kLz};
  for (const Scenario& sc : scenarios) {
    for (const core::CodecMode codec : codecs) {
      const std::vector<RoundPoint> pts = run_scenario(sc, codec);
      Json rows = Json::array();
      int total_retries = 0;
      std::uint64_t prev_bytes = 0;
      for (const RoundPoint& p : pts) {
        total_retries += p.outcome.retries;
        const std::uint64_t round_bytes = p.link_bytes - prev_bytes;
        prev_bytes = p.link_bytes;
        table.row({sc.label, core::to_string(codec), std::to_string(p.round),
                   p.fault_active ? "on" : "off",
                   p.outcome.degraded ? "yes" : "no",
                   std::to_string(p.outcome.stale_chunks),
                   std::to_string(p.outcome.failed_sends),
                   std::to_string(p.outcome.retries),
                   format_bytes(static_cast<double>(round_bytes)),
                   std::to_string(p.delayed), p.truthful ? "yes" : "NO"});
        Json row;
        row["codec"] = core::to_string(codec);
        row["round"] = p.round;
        row["fault_active"] = p.fault_active;
        row["degraded"] = p.outcome.degraded;
        row["helper_dead"] = p.outcome.helper_dead;
        row["stale_chunks"] = p.outcome.stale_chunks;
        row["failed_sends"] = p.outcome.failed_sends;
        row["retries"] = p.outcome.retries;
        row["link_bytes"] = round_bytes;
        row["transfers_delayed"] = p.delayed;
        row["actually_stale"] = p.actually_stale;
        row["truthful"] = p.truthful;
        rows.push_back(std::move(row));

        // Gates. Truthfulness is unconditional: a round whose report
        // disagrees with the store is a silently stale remote cut.
        if (!p.truthful) fail("report disagrees with store", sc, p.round);
        if (p.round == kFaultRound &&
            (sc.kind == FaultKind::kOutage || sc.kind == FaultKind::kStall ||
             sc.kind == FaultKind::kKill) &&
            !p.outcome.degraded) {
          fail("faulted round not reported degraded", sc, p.round);
        }
        const bool must_converge =
            sc.kind == FaultKind::kKill ? false : p.round > kFaultRound;
        if (must_converge && p.actually_stale != 0) {
          fail("no convergence after the fault cleared", sc, p.round);
        }
        if (sc.kind == FaultKind::kKill && p.round >= kFaultRound &&
            !p.outcome.helper_dead) {
          fail("dead helper not reported", sc, p.round);
        }
        if (sc.kind == FaultKind::kDegrade && p.round == kFaultRound) {
          // The round's puts cross the degraded link: the injector delays
          // their blocks, and the round still converges.
          if (p.delayed == 0) {
            fail("degraded link delayed no block", sc, p.round);
          }
          if (p.outcome.degraded || p.actually_stale != 0) {
            fail("degraded-link round did not converge", sc, p.round);
          }
        }
      }
      if (sc.kind == FaultKind::kDrop && total_retries == 0) {
        fail("drop scenario never retried", sc, kFaultRound);
      }
      Json j;
      j["label"] = sc.label;
      j["codec"] = core::to_string(codec);
      j["rounds"] = std::move(rows);
      j["total_retries"] = total_retries;
      out.push_back(std::move(j));
    }
  }
  table.print();
  if (smoke) {
    std::printf("  smoke gates: %s\n", ok ? "all OK" : "FAILED");
  }

  if (!csv.empty()) {
    const std::string path = report_path_for(csv);
    if (report.write(path)) {
      std::printf("  run report: %s\n", path.c_str());
    }
  }
  telemetry::flush_trace();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nvmcp::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nvmcp::bench::run(smoke);
}
