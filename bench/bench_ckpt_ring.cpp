// Multi-version checkpoint ring: commit throughput across ring depths,
// rollback-to-older-epoch byte verification, saturation-driven GC
// reclamation, and the Graph500 frontier-burst workload end-to-end.
//
// Depth 1, the paper's two-slot alternation, keeps one committed version
// per chunk (plus the previous one until the next commit reuses its
// slot); depth N retains the last N. This bench answers the questions
// that retention raises: what does depth cost on the commit path (it
// re-points slot bookkeeping, it must not add copies), does rollback to a
// retained epoch actually reproduce the old bytes, and does the GC pull a
// saturated device back down without ever touching the newest version.
//
// Output: console table + bench_ckpt_ring.csv + a RunReport JSON.
//
// --smoke: CI gates.
//   1. perf:     depth-4 commit throughput >= 0.8x depth-1 on the same
//                seeded schedule (retention must not tax the commit path).
//   2. rollback: a depth-4 stack that committed epochs 1..k restores
//                epoch k-2 byte-exact through the restart walk, and walks
//                back to an older epoch when the newest slot is corrupted.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "apps/driver.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/manager.hpp"
#include "core/restart.hpp"
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "vmem/container.hpp"

namespace nvmcp::bench {
namespace {

struct Scenario {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

Scenario make_scenario(int ring_depth, int nchunks, std::size_t chunk_bytes,
                       std::size_t capacity) {
  Scenario s;
  NvmConfig ncfg;
  ncfg.capacity = capacity;
  ncfg.throttle = false;
  ncfg.track_wear = false;
  s.dev = std::make_unique<NvmDevice>(ncfg);
  s.cont = std::make_unique<vmem::Container>(*s.dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.ring_depth = ring_depth;
  s.alloc = std::make_unique<alloc::ChunkAllocator>(*s.cont, aopts);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  ccfg.nvm_bw_per_core = 0;  // unthrottled: measure ring bookkeeping cost
  ccfg.epoch_gc_background = false;
  s.mgr = std::make_unique<core::CheckpointManager>(*s.alloc, ccfg);
  for (int i = 0; i < nchunks; ++i) {
    s.chunks.push_back(
        s.alloc->nvalloc("ring_" + std::to_string(i), chunk_bytes, true));
  }
  return s;
}

void refill(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
}

bool matches(const void* data, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto* p = static_cast<const std::byte*>(data);
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    if (std::memcmp(p + i, &v, 8) != 0) return false;
  }
  return true;
}

struct Measured {
  double commit_seconds = 0;   // sum of nvchkptall wall time
  double throughput = 0;       // committed bytes / commit_seconds
  std::size_t retained = 0;    // retained epochs on chunk 0 at the end
};

/// `rounds` rounds of (refill every chunk, nvchkptall), timing only the
/// coordinated step: the refills are identical across depths, the commit
/// is where ring bookkeeping could show up. depth+1 warm-up rounds run
/// untimed first so every ring slot exists and has been touched -- the
/// steady state is the comparison; lazy slot allocation and first-touch
/// faults are a one-time cost proportional to depth.
Measured measure_depth(int depth, int nchunks, std::size_t chunk_bytes,
                       int rounds) {
  // Capacity fits the deepest ring (depth+1 slots per chunk) with room.
  const std::size_t capacity =
      (depth + 2) * nchunks * chunk_bytes + 16 * MiB;
  Scenario s = make_scenario(depth, nchunks, chunk_bytes, capacity);
  Measured m;
  for (int w = 0; w <= depth; ++w) {
    for (int i = 0; i < nchunks; ++i) {
      refill(*s.chunks[i], static_cast<std::uint64_t>(w) * nchunks + i + 7);
    }
    s.mgr->nvchkptall();
  }
  for (int r = 1; r <= rounds; ++r) {
    for (int i = 0; i < nchunks; ++i) {
      refill(*s.chunks[i], static_cast<std::uint64_t>(r) * nchunks + i);
    }
    const auto t0 = std::chrono::steady_clock::now();
    s.mgr->nvchkptall();
    m.commit_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  m.throughput = static_cast<double>(rounds) * nchunks * chunk_bytes /
                 m.commit_seconds;
  m.retained = s.alloc->retained_epochs(*s.chunks[0]).size();
  return m;
}

/// Gate 2: commit epochs 1..5 on a depth-4 stack, then (a) soft-restart
/// at epoch 3 (= k-2) and byte-verify every chunk against its epoch-3 fill,
/// and (b) flip a byte in one chunk's newest committed slot and verify the
/// default restore walks back to an older epoch instead of failing.
bool check_rollback(std::string* detail) {
  constexpr int kChunks = 8;
  constexpr std::size_t kBytes = 256 * KiB;
  Scenario s = make_scenario(4, kChunks, kBytes, 32 * MiB);
  constexpr std::uint64_t kEpochs = 5;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    for (int i = 0; i < kChunks; ++i) {
      refill(*s.chunks[i], 100 * e + static_cast<std::uint64_t>(i));
    }
    s.mgr->nvchkptall();
  }
  for (auto* c : s.chunks) refill(*c, 0xdead);  // scribble DRAM

  core::RestartCoordinator rc(*s.mgr, nullptr);
  const auto rep = rc.restart_after(core::FailureKind::kSoft, kEpochs - 2);
  if (rep.status != RestoreStatus::kOkStale || rep.chunks_rolled_back != 0 ||
      rep.chunks_local != kChunks) {
    *detail = "restart_after(soft, k-2) status " +
              std::string(to_string(rep.status));
    return false;
  }
  for (int i = 0; i < kChunks; ++i) {
    if (!matches(s.chunks[i]->data(), kBytes,
                 100 * (kEpochs - 2) + static_cast<std::uint64_t>(i))) {
      *detail = "chunk " + std::to_string(i) + " != epoch k-2 bytes";
      return false;
    }
  }

  // Corrupt chunk 0's newest committed payload: the default restore must
  // detect it and fall back to an older retained epoch, byte-exact.
  const auto& rec = s.chunks[0]->record();
  s.dev->data()[rec.slot_off[rec.committed] + 123] ^= std::byte{0x5a};
  const auto walk = rc.restart_after(core::FailureKind::kSoft);
  if (walk.chunks_rolled_back != 1 ||
      walk.status != RestoreStatus::kOkStale) {
    *detail = "corrupted-newest walk-back: rolled_back=" +
              std::to_string(walk.chunks_rolled_back);
    return false;
  }
  if (!matches(s.chunks[0]->data(), kBytes, 100 * (kEpochs - 1))) {
    *detail = "walk-back landed on wrong epoch bytes";
    return false;
  }
  return true;
}

int run(bool smoke) {
  telemetry::init_from_env();

  telemetry::RunReport report("bench_ckpt_ring");
  report.config()["smoke"] = smoke;
  Json& points = report.section("depth_sweep");

  const std::string csv = smoke ? std::string{} : "bench_ckpt_ring.csv";
  TableWriter table(
      "Version-ring commit cost vs retention depth\n"
      "   (refill + coordinated checkpoint per round; commit time only)",
      {"depth", "retained", "commit/round", "throughput", "vs depth-1"},
      csv);

  const int nchunks = 32;
  const std::size_t chunk_bytes = smoke ? 256 * KiB : MiB;
  const int rounds = smoke ? 6 : 10;
  const std::vector<int> depths =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  report.config()["chunks"] = static_cast<std::uint64_t>(nchunks);
  report.config()["chunk_bytes"] = static_cast<std::uint64_t>(chunk_bytes);
  report.config()["rounds"] = static_cast<std::uint64_t>(rounds);

  double t1 = 0, t4 = 0;
  for (const int depth : depths) {
    const Measured m = measure_depth(depth, nchunks, chunk_bytes, rounds);
    if (depth == 1) t1 = m.throughput;
    if (depth == 4) t4 = m.throughput;
    table.row({std::to_string(depth), std::to_string(m.retained),
               format_seconds(m.commit_seconds / rounds),
               TableWriter::num(m.throughput / GiB) + " GiB/s",
               TableWriter::num(t1 > 0 ? m.throughput / t1 : 1.0) + "x"});
    Json point;
    point["depth"] = static_cast<std::uint64_t>(depth);
    point["retained_epochs"] = static_cast<std::uint64_t>(m.retained);
    point["commit_seconds"] = m.commit_seconds;
    point["throughput_bytes_per_sec"] = m.throughput;
    points.push_back(std::move(point));
  }
  table.print();

  std::string detail;
  const bool rollback_ok = check_rollback(&detail);
  std::printf("  rollback: depth-4 restore to epoch k-2 %s%s\n",
              rollback_ok ? "byte-exact OK" : "FAILED: ",
              rollback_ok ? "" : detail.c_str());
  report.section("rollback")["ok"] = rollback_ok;

  // Saturation-driven GC: drive a depth-8 stack until its slots push the
  // device past the watermark, then reclaim in one pass. Report-only in
  // smoke (the stress/unit suites gate GC invariants); the numbers show
  // the occupancy drop the watermark buys.
  {
    // 8 chunks x 9 slots x 256 KiB = 18 MiB of slots on a 20 MiB device:
    // past the 0.85 watermark once the rings fill.
    Scenario s = make_scenario(8, 8, 256 * KiB, 20 * MiB);
    for (std::uint64_t e = 1; e <= 9; ++e) {
      for (auto* c : s.chunks) refill(*c, e * 31 + c->id());
      s.mgr->nvchkptall();
    }
    const auto st = s.mgr->epoch_gc()->run_pass();
    std::printf(
        "  gc: occupancy %.3f -> %.3f, %llu slots (%0.1f MiB) reclaimed "
        "(watermark %.2f, floor %u)\n",
        st.occupancy_before, st.occupancy_after,
        static_cast<unsigned long long>(st.slots_reclaimed),
        static_cast<double>(st.bytes_reclaimed) / MiB,
        s.mgr->epoch_gc()->watermark(), s.mgr->epoch_gc()->floor());
    Json& gc = report.section("gc");
    gc["occupancy_before"] = st.occupancy_before;
    gc["occupancy_after"] = st.occupancy_after;
    gc["slots_reclaimed"] = st.slots_reclaimed;
    gc["bytes_reclaimed"] = st.bytes_reclaimed;
  }

  bool smoke_ok = rollback_ok;
  if (smoke) {
    const double ratio = t1 > 0 ? t4 / t1 : 0;
    const bool perf_ok = ratio >= 0.8;
    std::printf(
        "  smoke gate: depth-4 commit throughput %.2fx of depth-1 "
        "(need >= 0.80x) %s\n",
        ratio, perf_ok ? "OK" : "FAIL");
    report.section("perf_gate")["ratio"] = ratio;
    smoke_ok = smoke_ok && perf_ok;
  }

  // End-to-end: WorkloadSpec::graph500() through the multi-rank driver.
  // The frontier-burst dirty set swings by orders of magnitude between
  // checkpoints, so ring slots fill with wildly different commit sizes --
  // the shape the saturation-driven GC exists for. The ring depth reaches
  // every rank's allocator through DriverConfig::ring_depth. Skipped under
  // --smoke: driver runs take seconds.
  if (!smoke) {
    Json& g500 = report.section("graph500_driver");
    std::printf(
        "\n== WorkloadSpec::graph500() end-to-end (2 ranks x 16 "
        "iterations, checkpoint every %d) ==\n",
        apps::WorkloadSpec::graph500().iters_per_checkpoint);
    for (const int depth : {1, 4}) {
      apps::DriverConfig dcfg;
      dcfg.spec = apps::WorkloadSpec::graph500();
      dcfg.ring_depth = depth;
      dcfg.ranks = 2;
      dcfg.iterations = 16;
      dcfg.size_scale = 1.0 / 64;
      dcfg.time_scale = 1.0 / 512;
      dcfg.ckpt.local_policy = core::PrecopyPolicy::kCpc;
      dcfg.seed = 42;
      const apps::DriverResult r = apps::run_workload(dcfg);
      std::printf(
          "  depth %d   blocking %8.3f ms  wall %7.3f s  efficiency "
          "%5.1f%%\n",
          depth, r.ckpt.local_blocking_seconds * 1e3 / dcfg.ranks,
          r.wall_seconds, r.efficiency * 100);
      Json row;
      row["ring_depth"] = static_cast<std::uint64_t>(depth);
      row["blocking_seconds"] = r.ckpt.local_blocking_seconds;
      row["wall_seconds"] = r.wall_seconds;
      row["efficiency"] = r.efficiency;
      g500.push_back(std::move(row));
    }
  }

  if (!csv.empty()) {
    const std::string path = report_path_for(csv);
    if (report.write(path)) {
      std::printf("  run report: %s\n", path.c_str());
    }
  }
  telemetry::flush_trace();
  return smoke_ok ? 0 : 1;
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
