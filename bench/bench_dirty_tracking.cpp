// Dirty-tracking modes under a KV-store write shape: interval time
// (small stores + coordinated checkpoint) across tracking mode x write
// size x skew, plus the cost counters behind the differences (SIGSEGV
// faults, mprotect syscalls, logged bytes).
//
// The scenario is the regime the write log targets: many same-sized
// shards each taking a handful of 64..1024-byte stores per interval. With
// chunk-granularity fault tracking every interval pays one fault + one
// re-arm + one whole-chunk copy per touched shard; the write log replaces
// all three with nanosecond appends and sub-page range commits.
//
// Output: console table + bench_dirty_tracking.csv + a RunReport JSON.
//
// --smoke: CI gates.
//   1. perf:        kWriteLog interval time >= 2x better than kMprotect
//                   on the 64-byte skewed-KV scenario (256 x 8 KiB).
//   2. batch rearm: protect_batch over 256 address-adjacent ranges issues
//                   <= 1/8 the mprotect calls of per-range protect().
//   3. equivalence: committed slot bytes are identical across all four
//                   tracking modes after identically-seeded schedules
//                   committed with copy_threads=4.
//   4. write path:  in the kWriteLog and kMprotectPage rows, the measured
//                   intervals make exactly one device write per chunk
//                   their commits copied: a range commit is one vectored
//                   write, whatever its number of ranges (counted, not
//                   timed; checked in the full run too).
//   5. log count:   the kWriteLog row logs every append and drops none:
//                   log_drops == 0 and log_bytes == chunks x writes x
//                   write bytes x intervals, 393,216 B in the smoke shape
//                   (counted, not timed; checked in the full run too).
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
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
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "vmem/container.hpp"
#include "vmem/protection.hpp"

namespace nvmcp::bench {
namespace {

constexpr vmem::TrackMode kModes[] = {
    vmem::TrackMode::kMprotect, vmem::TrackMode::kMprotectPage,
    vmem::TrackMode::kSoftware, vmem::TrackMode::kWriteLog};

struct Scenario {
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> cont;
  std::unique_ptr<alloc::ChunkAllocator> alloc;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::vector<alloc::Chunk*> chunks;
};

Scenario make_scenario(vmem::TrackMode mode, int nchunks,
                       std::size_t chunk_bytes, std::size_t copy_threads) {
  Scenario s;
  NvmConfig ncfg;
  const std::size_t raw = 2 * nchunks * chunk_bytes + 8 * MiB;
  ncfg.capacity = (raw + MiB - 1) / MiB * MiB;
  ncfg.throttle = false;
  ncfg.track_wear = false;
  s.dev = std::make_unique<NvmDevice>(ncfg);
  s.cont = std::make_unique<vmem::Container>(*s.dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.track_mode = mode;
  s.alloc = std::make_unique<alloc::ChunkAllocator>(*s.cont, aopts);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  ccfg.nvm_bw_per_core = 0;  // unthrottled: CPU-side tracking costs dominate
  ccfg.copy_threads = copy_threads;
  s.mgr = std::make_unique<core::CheckpointManager>(*s.alloc, ccfg);
  std::uint64_t st = 0x5eed ^ static_cast<std::uint64_t>(nchunks);
  for (int i = 0; i < nchunks; ++i) {
    alloc::Chunk* c =
        s.alloc->nvalloc("kv_shard" + std::to_string(i), chunk_bytes, true);
    auto* p = static_cast<std::byte*>(c->data());
    for (std::size_t off = 0; off + 8 <= c->size(); off += 8) {
      const std::uint64_t v = splitmix64(st);
      std::memcpy(p + off, &v, 8);
    }
    s.chunks.push_back(c);
  }
  return s;
}

/// One interval's worth of small stores: identical bytes at identical
/// offsets for a given seed state regardless of mode; only the tracking
/// call differs (store-then-log under kWriteLog, one notify under
/// kSoftware, a real SIGSEGV fault under the mprotect modes).
void mutate(Scenario& s, vmem::TrackMode mode, int writes,
            std::size_t write_bytes, double hot_fraction,
            std::uint64_t* st) {
  for (alloc::Chunk* c : s.chunks) {
    auto* p = static_cast<std::byte*>(c->data());
    for (int w = 0; w < writes; ++w) {
      const std::uint64_t draw = splitmix64(*st);
      const std::size_t wb = std::min(write_bytes, c->size());
      const bool in_hot =
          hot_fraction > 0 &&
          (draw & 1023) < static_cast<std::uint64_t>(hot_fraction * 1024);
      const std::size_t span =
          in_hot ? std::max(wb, c->size() / 10) : c->size();
      const std::size_t off =
          ((draw >> 10) % (span - wb + 1)) & ~std::size_t{7};
      std::uint64_t vs = draw;
      std::size_t i = 0;
      for (; i + 8 <= wb; i += 8) {
        const std::uint64_t v = splitmix64(vs);
        std::memcpy(p + off + i, &v, 8);
      }
      if (i < wb) {
        const std::uint64_t v = splitmix64(vs);
        std::memcpy(p + off + i, &v, wb - i);
      }
      if (mode == vmem::TrackMode::kWriteLog) c->log_write(off, wb);
    }
    if (writes > 0 && mode == vmem::TrackMode::kSoftware) c->notify_write();
  }
}

struct Measured {
  double interval_seconds = 0;  // mean stores+checkpoint wall time
  core::CheckpointStats stats;
  // Over the measured intervals: device write calls, and the chunks the
  // commits copied.
  std::uint64_t dev_writes = 0;
  std::uint64_t chunks_copied = 0;
};

/// Mean wall time of (stores + nvchkptall) over `intervals`, after one
/// warm-up checkpoint that captures the initial fill and arms tracking.
Measured measure(vmem::TrackMode mode, int nchunks, std::size_t chunk_bytes,
                 int writes, std::size_t write_bytes, double hot_fraction,
                 int intervals, std::size_t copy_threads) {
  Scenario s = make_scenario(mode, nchunks, chunk_bytes, copy_threads);
  s.mgr->nvchkptall();
  // The mprotect counter is process-global (singleton manager); bracket
  // the measured intervals so each row reports only its own syscalls.
  const std::uint64_t calls0 =
      vmem::ProtectionManager::instance().total_mprotect_calls();
  const std::uint64_t writes0 = s.dev->stats().write_calls;
  const std::uint64_t copied0 = s.mgr->stats().chunks_recopied_dirty;
  std::uint64_t st = 0xd127;
  double total = 0;
  for (int it = 0; it < intervals; ++it) {
    const auto t0 = std::chrono::steady_clock::now();
    mutate(s, mode, writes, write_bytes, hot_fraction, &st);
    s.mgr->nvchkptall();
    total += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }
  Measured m;
  m.interval_seconds = total / intervals;
  m.stats = s.mgr->stats();
  m.stats.mprotect_calls =
      vmem::ProtectionManager::instance().total_mprotect_calls() - calls0;
  m.dev_writes = s.dev->stats().write_calls - writes0;
  m.chunks_copied = m.stats.chunks_recopied_dirty - copied0;
  return m;
}

/// Gate 2: arm 256 address-adjacent page ranges both ways and compare
/// mprotect call counts. The ranges are slices of one mmap so the batch
/// path's run coalescing is deterministic: one contiguous run, one call.
bool check_batch_rearm(int* batch_calls_out, int* single_calls_out) {
  constexpr int kRanges = 256;
  auto& prot = vmem::ProtectionManager::instance();
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  void* buf = ::mmap(nullptr, kRanges * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return false;
  vmem::WriteTracker tracker;
  std::vector<int> handles;
  for (int i = 0; i < kRanges; ++i) {
    handles.push_back(prot.register_range(
        static_cast<std::byte*>(buf) + i * page, page, &tracker,
        vmem::TrackMode::kMprotect));
  }
  const std::size_t batch_calls = prot.protect_batch(handles);
  const std::uint64_t before = prot.total_mprotect_calls();
  for (int h : handles) prot.protect(h);
  const std::size_t single_calls =
      static_cast<std::size_t>(prot.total_mprotect_calls() - before);
  for (int h : handles) prot.unregister_range(h);
  ::munmap(buf, kRanges * page);
  *batch_calls_out = static_cast<int>(batch_calls);
  *single_calls_out = static_cast<int>(single_calls);
  return batch_calls * 8 <= single_calls;
}

/// Gate 3: run the identical seeded schedule under every mode with the
/// sharded (copy_threads=4) commit and require byte-identical committed
/// slots. This is the pillar the sub-page path stands on: whatever mix of
/// range commits, coverage fallbacks and whole-chunk copies each mode
/// picks, the published slot must equal DRAM at the cut.
bool check_mode_equivalence(std::string* detail) {
  constexpr int kChunks = 24;
  constexpr std::size_t kChunkBytes = 16 * KiB;
  constexpr int kRounds = 4;  // >= 3: both slots see sub-page commits
  std::vector<std::vector<std::byte>> reference;
  for (const vmem::TrackMode mode : kModes) {
    Scenario s = make_scenario(mode, kChunks, kChunkBytes, 4);
    s.mgr->nvchkptall();
    std::uint64_t st = 0xe91a;
    for (int round = 0; round < kRounds; ++round) {
      mutate(s, mode, 6, 96, 0.7, &st);
      s.mgr->nvchkptall();
    }
    for (int j = 0; j < kChunks; ++j) {
      alloc::Chunk* c = s.chunks[j];
      const vmem::ChunkRecord& rec = c->record();
      const std::byte* slot = s.dev->data() + rec.slot_off[rec.committed];
      if (std::memcmp(slot, c->data(), c->size()) != 0) {
        *detail = std::string(vmem::to_string(mode)) + " chunk " +
                  std::to_string(j) + ": committed slot != DRAM";
        return false;
      }
      if (reference.size() <= static_cast<std::size_t>(j)) {
        reference.emplace_back(slot, slot + c->size());
      } else if (std::memcmp(slot, reference[j].data(), c->size()) != 0) {
        *detail = std::string(vmem::to_string(mode)) + " chunk " +
                  std::to_string(j) + ": diverges from " +
                  vmem::to_string(kModes[0]);
        return false;
      }
    }
  }
  return true;
}

int run(bool smoke) {
  telemetry::init_from_env();

  telemetry::RunReport report("bench_dirty_tracking");
  report.config()["smoke"] = smoke;
  Json& points = report.section("points");

  const std::string csv = smoke ? std::string{} : "bench_dirty_tracking.csv";
  TableWriter table(
      "Dirty tracking modes -- KV-store write shape\n"
      "   (stores + coordinated checkpoint per interval; 256 x 8 KiB "
      "shards)",
      {"mode", "write B", "skew", "interval", "vs mprotect", "faults",
       "mprotect calls", "log KiB", "dev writes", "chunks copied"},
      csv);

  // Fault cost is pinned to the paper's measured 8 us (Section IV: 6-12 us
  // per protection fault) like bench_ablation_page_vs_chunk, so the
  // mode comparison reflects paper-scale tracking costs rather than this
  // host's SIGSEGV round-trip, and the CI gate is stable across machines.
  vmem::ProtectionManager::instance().set_extra_fault_latency(8e-6);
  const int nchunks = 256;
  const std::size_t chunk_bytes = 8 * KiB;
  const int writes = 4;
  const int intervals = smoke ? 6 : 4;
  const std::vector<std::size_t> write_sizes =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 256, 1024};
  const std::vector<double> skews = smoke ? std::vector<double>{0.9}
                                          : std::vector<double>{0.0, 0.9};
  report.config()["chunks"] = static_cast<std::uint64_t>(nchunks);
  report.config()["chunk_bytes"] = static_cast<std::uint64_t>(chunk_bytes);
  report.config()["writes_per_chunk"] = static_cast<std::uint64_t>(writes);

  double t_mprotect_64_skew = 0, t_writelog_64_skew = 0;
  bool write_path_ok = true;
  bool log_count_ok = true;
  for (const std::size_t wb : write_sizes) {
    for (const double skew : skews) {
      double t_mprotect = 0;
      for (const vmem::TrackMode mode : kModes) {
        const Measured m = measure(mode, nchunks, chunk_bytes, writes, wb,
                                   skew, intervals, /*copy_threads=*/1);
        if (mode == vmem::TrackMode::kMprotect) t_mprotect = m.interval_seconds;
        if (mode == vmem::TrackMode::kWriteLog ||
            mode == vmem::TrackMode::kMprotectPage) {
          write_path_ok = write_path_ok && m.chunks_copied > 0 &&
                          m.dev_writes == m.chunks_copied;
        }
        if (mode == vmem::TrackMode::kWriteLog) {
          const std::uint64_t logged = static_cast<std::uint64_t>(nchunks) *
                                       writes * std::min(wb, chunk_bytes) *
                                       intervals;
          log_count_ok = log_count_ok && m.stats.log_drops == 0 &&
                         m.stats.log_bytes == logged;
        }
        if (wb == 64 && skew > 0) {
          if (mode == vmem::TrackMode::kMprotect) {
            t_mprotect_64_skew = m.interval_seconds;
          } else if (mode == vmem::TrackMode::kWriteLog) {
            t_writelog_64_skew = m.interval_seconds;
          }
        }
        table.row({vmem::to_string(mode), std::to_string(wb),
                   TableWriter::num(skew),
                   format_seconds(m.interval_seconds),
                   TableWriter::num(t_mprotect / m.interval_seconds) + "x",
                   std::to_string(m.stats.protection_faults),
                   std::to_string(m.stats.mprotect_calls),
                   TableWriter::num(static_cast<double>(m.stats.log_bytes) /
                                    KiB),
                   std::to_string(m.dev_writes),
                   std::to_string(m.chunks_copied)});
        Json point;
        point["mode"] = vmem::to_string(mode);
        point["write_bytes"] = static_cast<std::uint64_t>(wb);
        point["hot_fraction"] = skew;
        point["interval_seconds"] = m.interval_seconds;
        point["speedup_vs_mprotect"] = t_mprotect / m.interval_seconds;
        point["faults"] = m.stats.protection_faults;
        point["fault_seconds"] = m.stats.fault_seconds;
        point["mprotect_calls"] = m.stats.mprotect_calls;
        point["log_bytes"] = m.stats.log_bytes;
        point["log_drops"] = m.stats.log_drops;
        point["dev_writes"] = m.dev_writes;
        point["chunks_copied"] = m.chunks_copied;
        points.push_back(std::move(point));
      }
    }
  }
  table.print();
  vmem::ProtectionManager::instance().set_extra_fault_latency(0);

  int batch_calls = 0, single_calls = 0;
  const bool rearm_ok = check_batch_rearm(&batch_calls, &single_calls);
  std::printf(
      "  batch re-arm: %d mprotect calls for 256 adjacent ranges vs %d "
      "per-range (need <= 1/8) %s\n",
      batch_calls, single_calls, rearm_ok ? "OK" : "FAIL");
  report.section("batch_rearm")["batch_calls"] =
      static_cast<std::uint64_t>(batch_calls);
  report.section("batch_rearm")["single_calls"] =
      static_cast<std::uint64_t>(single_calls);

  std::string detail;
  const bool equiv_ok = check_mode_equivalence(&detail);
  std::printf("  mode equivalence: committed slots %s%s%s\n",
              equiv_ok ? "byte-identical across modes OK" : "DIVERGED: ",
              equiv_ok ? "" : detail.c_str(), "");
  report.section("equivalence")["ok"] = equiv_ok;

  std::printf(
      "  write path: one device write per copied chunk in the writelog "
      "and mprotect_page rows %s\n",
      write_path_ok ? "OK" : "FAIL");
  report.section("write_path")["ok"] = write_path_ok;

  std::printf(
      "  log count: the writelog rows log every append's bytes and drop "
      "none %s\n",
      log_count_ok ? "OK" : "FAIL");
  report.section("log_count")["ok"] = log_count_ok;

  bool smoke_ok = rearm_ok && equiv_ok && write_path_ok && log_count_ok;
  if (smoke) {
    const double speedup =
        t_writelog_64_skew > 0 ? t_mprotect_64_skew / t_writelog_64_skew : 0;
    const bool perf_ok = speedup >= 2.0;
    std::printf(
        "  smoke gate: write-log speedup %.2fx over mprotect on 64 B "
        "skewed KV (need >= 2.00x) %s\n",
        speedup, perf_ok ? "OK" : "FAIL");
    report.section("perf_gate")["speedup"] = speedup;
    smoke_ok = smoke_ok && perf_ok;
  }

  // End-to-end: WorkloadSpec::redis() through the multi-rank driver, the
  // fig-style surface for the regime this bench isolates (24 KV shards of
  // small random stores + 2 wholesale index chunks, real coordinated
  // checkpoints across ranks). Skipped under --smoke: driver runs take
  // seconds and the micro-rows above already gate the ratio.
  if (!smoke) {
    vmem::ProtectionManager::instance().set_extra_fault_latency(8e-6);
    Json& redis = report.section("redis_driver");
    std::printf(
        "\n== WorkloadSpec::redis() end-to-end (2 ranks x 24 iterations, "
        "checkpoint every %d) ==\n",
        apps::WorkloadSpec::redis().iters_per_checkpoint);
    for (const vmem::TrackMode mode :
         {vmem::TrackMode::kMprotect, vmem::TrackMode::kWriteLog}) {
      apps::DriverConfig dcfg;
      dcfg.spec = apps::WorkloadSpec::redis();
      dcfg.ranks = 2;
      // 6 checkpoints: the first two fill each version slot wholesale
      // (slot alternation), the last four are the incremental regime.
      dcfg.iterations = 24;
      // 1/16 keeps the write density honest: the spec's writes_per_iter
      // does not scale, so shrinking shards too far merges the logged
      // stores past the coverage threshold and writelog degenerates to
      // whole-chunk copies (at 1/16, 256 KiB shards take ~3% coverage).
      dcfg.size_scale = 1.0 / 16;
      dcfg.time_scale = 1.0 / 512;
      // Throttle at the paper's NVMBW_core: the whole point of sub-page
      // commits is that NVM write bandwidth, not tracking CPU, is the
      // scarce resource at this surface (unthrottled, a shard's range
      // commit still reads the whole shard to CRC its clean gaps, and
      // again to scrub a reused slot, which saves little over one
      // whole-shard memcpy).
      dcfg.ckpt.nvm_bw_per_core = 400.0 * MiB;
      dcfg.track_mode = mode;
      dcfg.seed = 42;
      const apps::DriverResult r = apps::run_workload(dcfg);
      std::printf(
          "  %-10s blocking %8.3f ms  faults %5llu  fault time %6.3f ms  "
          "logged %6.1f KiB\n",
          vmem::to_string(mode),
          r.ckpt.local_blocking_seconds * 1e3 / dcfg.ranks,
          static_cast<unsigned long long>(r.ckpt.protection_faults),
          r.ckpt.fault_seconds * 1e3,
          static_cast<double>(r.ckpt.log_bytes) / KiB);
      Json row;
      row["mode"] = vmem::to_string(mode);
      row["blocking_seconds"] = r.ckpt.local_blocking_seconds;
      row["faults"] = r.ckpt.protection_faults;
      row["fault_seconds"] = r.ckpt.fault_seconds;
      row["log_bytes"] = r.ckpt.log_bytes;
      row["log_drops"] = r.ckpt.log_drops;
      row["wall_seconds"] = r.wall_seconds;
      redis.push_back(std::move(row));
    }
    vmem::ProtectionManager::instance().set_extra_fault_latency(0);
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
