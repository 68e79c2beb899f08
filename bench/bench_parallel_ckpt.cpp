// Parallel multi-stream checkpoint data path: blocking time of the
// coordinated commit (nvchkptall, the paper's t_lcl) vs copy_threads.
//
// Each worker of the sharded commit drives its own NVMBW_core stream
// limiter (400 MiB/s, the paper's per-core budget), so on an unthrottled
// device the blocking time should fall ~linearly with the thread count —
// the limiter sleeps overlap. On a throttled PCM device the device-global
// limiter caps the aggregate at ~2 GB/s, so the curve flattens once
// copy_threads * NVMBW_core crosses the device bandwidth (between 4 and
// 8 threads here): per-stream parallelism buys speedup only up to the
// device's aggregate budget.
//
// A second sweep covers the remote leg: the same commit stream shipped to
// a buddy store over a deliberately slow (100 MB/s) link, once per
// transport codec mode. Columns are aggregate commit throughput (local
// commit + remote coordination, per round) and the bytes that actually
// crossed the link -- raw ships raw frames, lz/adaptive ship LZ frames
// where they shrink the payload. The payload is compressible (structured
// runs), the case the codec exists for. After each mode's rounds a fresh
// stack hard-restores the cut from the buddy alone.
//
// Output: console table + bench_parallel_ckpt.csv + a RunReport JSON.
//
// --smoke: CI perf gate. Runs only the unthrottled device at {1, 4}
// threads and exits 1 if the 4-thread blocking time is not >= 1.5x better
// than serial. The codec sweep adds two more gates: adaptive must not
// lose to raw on aggregate commit throughput (>= 1.0x), and on this
// compressible payload it must cut the link bytes at least 2x. In every
// mode, smoke or not, each chunk of the hard-restored cut must be
// byte-exact, or the bench exits 1.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/nvmalloc.hpp"
#include "local_experiment.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/manager.hpp"
#include "core/remote.hpp"
#include "telemetry/telemetry.hpp"
#include "vmem/container.hpp"

namespace nvmcp::bench {
namespace {

/// Mixed chunk sizes (MiB) so the largest-first sharding has real
/// balancing work: 128 MiB total across 15 chunks, 1..24 MiB each.
constexpr std::size_t kChunkMiB[] = {24, 20, 16, 12, 12, 8, 8,
                                     8,  6,  4,  4,  2,  2, 1, 1};

struct DeviceCase {
  std::string label;
  bool throttle = false;
};

struct Point {
  std::size_t threads = 0;
  double blocking = 0;  // best-of-N nvchkptall seconds
  double rate = 0;      // payload / blocking
  double speedup = 0;   // vs threads == 1 on the same device
};

/// One full measurement: fresh device + allocator + manager at the given
/// thread count, full-dirty payload, best blocking time over `iters`
/// coordinated checkpoints.
double measure_blocking(const DeviceCase& dc, std::size_t threads,
                        int iters, std::size_t* payload_out) {
  NvmConfig ncfg;
  ncfg.capacity = 512 * MiB;  // 2x slots for 128 MiB payload + metadata
  ncfg.spec = NvmSpec::pcm();
  ncfg.throttle = dc.throttle;
  NvmDevice dev(ncfg);
  vmem::Container cont(dev);
  alloc::ChunkAllocator allocator(cont);

  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  ccfg.nvm_bw_per_core = 400.0 * MiB;  // per-stream NVMBW_core
  ccfg.copy_threads = threads;
  core::CheckpointManager mgr(allocator, ccfg);

  std::vector<alloc::Chunk*> chunks;
  std::size_t payload = 0;
  int idx = 0;
  for (const std::size_t mib : kChunkMiB) {
    alloc::Chunk* c = allocator.nvalloc(
        "par_chunk" + std::to_string(idx++), mib * MiB, true);
    std::memset(c->data(), 0x5a, c->size());
    chunks.push_back(c);
    payload += c->size();
  }
  if (payload_out) *payload_out = payload;

  mgr.nvchkptall();  // warm-up: first full copy, arms page tracking

  double best = 1e30;
  for (int it = 0; it < iters; ++it) {
    // Re-dirty every page (one stamped word per 4 KiB) so each measured
    // checkpoint moves the full payload, not a diff.
    for (alloc::Chunk* c : chunks) {
      auto* p = static_cast<unsigned char*>(c->data());
      for (std::size_t off = 0; off < c->size(); off += 4096) {
        p[off] = static_cast<unsigned char>(it + 1);
      }
    }
    const double t = mgr.nvchkptall();
    if (t < best) best = t;
  }
  return best;
}

// --- codec sweep over the remote leg ---------------------------------

constexpr std::size_t kCodecChunks = 8;
constexpr std::size_t kCodecChunkBytes = 2 * MiB;
constexpr double kCodecLinkBw = 1.0e8;  // 100 MB/s: compression territory

/// Compressible, epoch-varying payload: 64-byte runs cycling 7 values,
/// shifted per round so every byte changes between epochs (a full re-ship,
/// not a diff) while staying structured.
void fill_structured(alloc::Chunk& c, int round) {
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    p[i] = static_cast<std::byte>(
        (i / 64 + static_cast<std::size_t>(round) * 3) % 7);
  }
  c.notify_write();
}

struct CodecPoint {
  core::CodecMode mode = core::CodecMode::kRaw;
  double seconds = 0;          // measured rounds, commit + coordinate
  double tput = 0;             // payload bytes committed / seconds
  std::uint64_t link_bytes = 0;  // wire bytes over the measured rounds
  RestoreStatus restore = RestoreStatus::kNoData;  // hard restore status
  std::size_t exact = 0;       // chunks the hard restore got byte-exact
};

/// Hard failure of the node behind `rmem`: a fresh device, allocator and
/// manager (same config and ring depth) restore `chunks` from the buddy
/// alone. Records the status and how many chunks came back byte-exact.
void hard_restore(const std::vector<alloc::Chunk*>& chunks,
                  const alloc::ChunkAllocator::Options& aopts,
                  const core::CheckpointConfig& ccfg,
                  net::RemoteMemory& rmem, CodecPoint* p) {
  NvmConfig ncfg;
  ncfg.capacity = 256 * MiB;
  ncfg.throttle = false;
  NvmDevice dev(ncfg);
  vmem::Container cont(dev);
  alloc::ChunkAllocator allocator(cont, aopts);
  core::CheckpointManager mgr(allocator, ccfg);
  std::vector<alloc::Chunk*> fresh;
  for (std::size_t j = 0; j < chunks.size(); ++j) {
    fresh.push_back(allocator.nvalloc("codec_chunk" + std::to_string(j),
                                      chunks[j]->size(), true));
  }
  p->restore = core::RestartCoordinator(mgr, &rmem)
                   .restart_after(core::FailureKind::kHard)
                   .status;
  for (std::size_t j = 0; j < chunks.size(); ++j) {
    if (std::memcmp(fresh[j]->data(), chunks[j]->data(),
                    chunks[j]->size()) == 0) {
      ++p->exact;
    }
  }
}

CodecPoint measure_codec(core::CodecMode mode, int rounds) {
  NvmConfig ncfg;
  ncfg.capacity = 256 * MiB;
  ncfg.throttle = false;
  NvmDevice dev(ncfg);
  vmem::Container cont(dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.ring_depth = 4;  // a frame must restore without the sender's ring
  alloc::ChunkAllocator allocator(cont, aopts);
  core::CheckpointConfig ccfg;
  ccfg.local_policy = core::PrecopyPolicy::kNone;
  ccfg.nvm_bw_per_core = 0;  // unthrottled local leg; the link dominates
  ccfg.codec_mode = mode;
  core::CheckpointManager mgr(allocator, ccfg);

  std::vector<alloc::Chunk*> chunks;
  for (std::size_t j = 0; j < kCodecChunks; ++j) {
    chunks.push_back(allocator.nvalloc("codec_chunk" + std::to_string(j),
                                       kCodecChunkBytes, true));
  }

  NvmConfig scfg;
  scfg.capacity = 256 * MiB;
  scfg.throttle = false;
  net::RemoteStore store(scfg);
  net::Interconnect link(kCodecLinkBw, 0.1);
  net::RemoteMemory rmem(link, store);
  core::RemoteConfig rcfg;
  rcfg.policy = core::PrecopyPolicy::kNone;
  core::RemoteCheckpointer repl({&mgr}, rmem, rcfg);

  // Warm-up round: first full ship. Under kAdaptive this is where the
  // tuner learns the real link bandwidth from the timed puts (its priors
  // assume a fast link and pick raw), so it is excluded from the
  // measurement -- as is the first-ever local copy.
  for (alloc::Chunk* c : chunks) fill_structured(*c, 0);
  mgr.nvchkptall();
  repl.coordinate_now();

  const std::uint64_t base_bytes = link.stats().checkpoint_bytes;
  Stopwatch sw;
  for (int round = 1; round <= rounds; ++round) {
    for (alloc::Chunk* c : chunks) fill_structured(*c, round);
    mgr.nvchkptall();
    repl.coordinate_now();
  }
  CodecPoint p;
  p.mode = mode;
  p.seconds = sw.elapsed();
  p.link_bytes = link.stats().checkpoint_bytes - base_bytes;
  p.tput = static_cast<double>(kCodecChunks * kCodecChunkBytes) *
           static_cast<double>(rounds) / p.seconds;
  hard_restore(chunks, aopts, ccfg, rmem, &p);
  return p;
}

int run(bool smoke) {
  telemetry::init_from_env();

  const std::vector<DeviceCase> devices =
      smoke ? std::vector<DeviceCase>{{"unthrottled", false}}
            : std::vector<DeviceCase>{{"unthrottled", false},
                                      {"PCM 2 GB/s", true}};
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const int iters = smoke ? 2 : 3;
  const std::string csv = smoke ? std::string{} : "bench_parallel_ckpt.csv";

  telemetry::RunReport report("bench_parallel_ckpt");
  report.config()["payload_mib"] = 128.0;
  report.config()["nvm_bw_per_core"] = 400.0 * MiB;
  report.config()["smoke"] = smoke;
  Json& points = report.section("points");

  TableWriter table(
      "Parallel checkpoint data path -- blocking t_lcl vs copy_threads\n"
      "   (sharded nvchkptall, one 400 MiB/s NVMBW_core stream per worker)",
      {"device", "copy_threads", "blocking time", "effective rate",
       "speedup vs 1"},
      csv);

  bool smoke_ok = true;
  for (const DeviceCase& dc : devices) {
    std::vector<Point> pts;
    for (const std::size_t threads : thread_counts) {
      std::size_t payload = 0;
      Point p;
      p.threads = threads;
      p.blocking = measure_blocking(dc, threads, iters, &payload);
      p.rate = static_cast<double>(payload) / p.blocking;
      p.speedup = pts.empty() ? 1.0 : pts.front().blocking / p.blocking;
      pts.push_back(p);

      table.row({dc.label, std::to_string(threads),
                 format_seconds(p.blocking), format_bandwidth(p.rate),
                 TableWriter::num(p.speedup) + "x"});

      Json point;
      point["device"] = dc.label;
      point["copy_threads"] = static_cast<std::uint64_t>(threads);
      point["blocking_seconds"] = p.blocking;
      point["effective_rate"] = p.rate;
      point["speedup_vs_serial"] = p.speedup;
      points.push_back(std::move(point));
    }
    if (smoke) {
      const double speedup = pts.back().speedup;
      smoke_ok = speedup >= 1.5;
      std::printf("  smoke gate: 4-thread speedup %.2fx (need >= 1.50x) %s\n",
                  speedup, smoke_ok ? "OK" : "FAIL");
    }
  }
  table.print();

  // Codec sweep: the same commit stream over a 100 MB/s remote link, per
  // transport codec mode.
  const std::vector<core::CodecMode> codec_modes =
      smoke ? std::vector<core::CodecMode>{core::CodecMode::kRaw,
                                           core::CodecMode::kAdaptive}
            : std::vector<core::CodecMode>{core::CodecMode::kRaw,
                                           core::CodecMode::kLz,
                                           core::CodecMode::kAdaptive};
  const int codec_rounds = smoke ? 2 : 3;

  TableWriter codec_table(
      "Transport codec sweep -- commit + remote coordination over a "
      "100 MB/s link\n   (16 MiB compressible payload per round; link "
      "bytes are what actually crossed the wire)",
      {"codec", "rounds", "aggregate tput", "link bytes", "vs raw bytes",
       "tput vs raw"},
      std::string{});
  Json& codec_points = report.section("codec_sweep");

  CodecPoint raw_point;
  bool codec_ok = true;
  for (const core::CodecMode mode : codec_modes) {
    const CodecPoint p = measure_codec(mode, codec_rounds);
    if (mode == core::CodecMode::kRaw) raw_point = p;
    const double byte_cut =
        p.link_bytes
            ? static_cast<double>(raw_point.link_bytes) /
                  static_cast<double>(p.link_bytes)
            : 0.0;
    const double tput_ratio = raw_point.tput ? p.tput / raw_point.tput : 0.0;
    codec_table.row({core::to_string(mode), std::to_string(codec_rounds),
                     format_bandwidth(p.tput),
                     format_bytes(static_cast<double>(p.link_bytes)),
                     TableWriter::num(byte_cut) + "x",
                     TableWriter::num(tput_ratio) + "x"});
    Json point;
    point["codec"] = core::to_string(mode);
    point["rounds"] = static_cast<std::uint64_t>(codec_rounds);
    point["aggregate_tput"] = p.tput;
    point["link_bytes"] = p.link_bytes;
    point["byte_cut_vs_raw"] = byte_cut;
    point["tput_vs_raw"] = tput_ratio;
    point["hard_restore"] = to_string(p.restore);
    point["hard_restore_exact_chunks"] = static_cast<std::uint64_t>(p.exact);
    codec_points.push_back(std::move(point));

    const bool restored =
        p.restore == RestoreStatus::kOkFromRemote && p.exact == kCodecChunks;
    std::printf("  hard restore (%s): %s, %zu/%zu chunks byte-exact %s\n",
                core::to_string(mode), to_string(p.restore), p.exact,
                kCodecChunks, restored ? "OK" : "FAIL");
    codec_ok = codec_ok && restored;

    if (mode == core::CodecMode::kAdaptive) {
      // Adaptive must never lose to raw on aggregate commit throughput,
      // and on this compressible sweep it must cut link bytes >= 2x.
      bool gates_ok = true;
      if (p.tput < raw_point.tput) {
        std::printf("  codec gate FAIL: adaptive tput %.2fx of raw "
                    "(need >= 1.00x)\n", tput_ratio);
        gates_ok = false;
      }
      if (p.link_bytes * 2 > raw_point.link_bytes) {
        std::printf("  codec gate FAIL: adaptive link bytes %.2fx cut "
                    "(need >= 2.00x)\n", byte_cut);
        gates_ok = false;
      }
      if (gates_ok) {
        std::printf("  codec gates: adaptive %.2fx tput, %.2fx byte cut "
                    "vs raw OK\n", tput_ratio, byte_cut);
      }
      codec_ok = codec_ok && gates_ok;
    }
  }
  codec_table.print();
  smoke_ok = smoke_ok && codec_ok;

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
