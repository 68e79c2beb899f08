// Restart workloads over cm1() at 1/16 scale (40 chunks, ~27 MB).
//
// restart_soft: set-up takes one local checkpoint on a file-backed,
// PCM-throttled device; each operation reopens the device file and
// nvalloc(persistent)s every chunk, which restores it (timed from device
// open to the last restore).
//
// restart_hard: set-up takes one local checkpoint and ships it to a buddy
// store with the codec pinned to LZ; each operation builds a fresh
// anonymous stack and hard-restarts it from the buddy (timed from device
// creation to the end of restart_after).
//
// Every restart is compared byte for byte with the checkpointed state.
#include <filesystem>
#include <unistd.h>

#include "apps/workload_exec.hpp"
#include "bench.hpp"
#include "common/clock.hpp"
#include "common/units.hpp"
#include "core/remote.hpp"
#include "core/restart.hpp"

namespace nvmcp::bench {
namespace {

constexpr double kScale = 1.0 / 16;
constexpr std::uint64_t kSalt = 4;

/// Scratch directory for the device file: beside the executable (inside
/// the build tree), unique per process, removed when the pass ends.
class ScratchDir {
 public:
  ScratchDir() {
    const auto exe = std::filesystem::read_symlink("/proc/self/exe");
    path_ = exe.parent_path() /
            ("restart-scratch-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

StackConfig restart_stack(const apps::WorkloadSpec& spec) {
  StackConfig s = default_stack(payload_bytes(spec, kScale));
  s.device.throttle = true;  // PCM write and read bandwidth
  // Only the device limit applies to the set-up checkpoint.
  s.ckpt.nvm_bw_per_core = 0;
  s.ckpt.local_policy = core::PrecopyPolicy::kNone;
  s.ckpt.codec_mode = core::CodecMode::kLz;
  return s;
}

/// One local checkpoint of iteration 0's state; returns that state.
Payload checkpoint_once(LocalStack& st, const apps::WorkloadSpec& spec,
                        std::uint64_t seed, vmem::TrackMode mode) {
  Rng rng(derive_seed(seed, kSalt));
  apply_iteration(spec, st.chunks, 0, rng, mode);
  st.mgr->nvchkptall();
  return snapshot(st.chunks);
}

/// Throughput of a restart loop: restarts per second of restart time.
void set_throughput(Pass& pass, const std::vector<double>& restart_ms) {
  double total_s = 0;
  for (double ms : restart_ms) total_s += ms / 1e3;
  pass.work = static_cast<double>(restart_ms.size());
  pass.work_seconds = total_s;
  pass.detail["restarts"] = static_cast<double>(restart_ms.size());
}

}  // namespace

Pass run_restart_soft(const PassOptions& o) {
  Pass pass;
  const apps::WorkloadSpec spec = apps::WorkloadSpec::cm1();
  const ScratchDir dir;
  StackConfig cfg = restart_stack(spec);
  cfg.device.backing_file = dir.file("soft.nvm");

  Payload golden;
  for (int k = 0; k < o.setups; ++k) {
    std::filesystem::remove(cfg.device.backing_file);
    const Stopwatch sw;
    LocalStack st(cfg, spec, kScale);
    golden = checkpoint_once(st, spec, o.seed, cfg.alloc.track_mode);
    pass.setup_s.push_back(sw.elapsed());
    if (k + 1 == o.setups) pass.detail["knobs"] = knobs_json(cfg, st);
  }

  begin_window(o);
  for (std::size_t i = 0; i < o.ops && !out_of_time(); ++i) {
    const Stopwatch sw;
    std::unique_ptr<NvmDevice> dev;
    std::unique_ptr<vmem::Container> container;
    std::unique_ptr<alloc::ChunkAllocator> allocator;
    {
      telemetry::Span span("bench_restart_attach", "bench");
      dev = std::make_unique<NvmDevice>(cfg.device);
      container = std::make_unique<vmem::Container>(*dev);
      allocator = std::make_unique<alloc::ChunkAllocator>(*container,
                                                          cfg.alloc);
    }
    std::vector<alloc::Chunk*> chunks;
    {
      telemetry::Span span("bench_restart_restore", "bench");
      for (const apps::ChunkSpec& cs : spec.chunks) {
        chunks.push_back(allocator->nvalloc(
            alloc::genid(cs.name),
            apps::detail::scaled_bytes(cs.bytes, kScale), true, cs.name));
      }
    }
    pass.op_ms.push_back(sw.elapsed() * 1e3);
    bool restored = dev->reopened();
    for (const alloc::Chunk* c : chunks) {
      restored = restored && c->restore_status() == RestoreStatus::kOk;
    }
    pass.op(restored, "soft restart status");
    pass.verify_bytes(chunks, golden, "soft restart bytes");
  }
  set_throughput(pass, pass.op_ms);
  if (o.traced) pass.probes = run_probes(spec, kScale, golden);
  return pass;
}

Pass run_restart_hard(const PassOptions& o) {
  Pass pass;
  const apps::WorkloadSpec spec = apps::WorkloadSpec::cm1();
  const StackConfig cfg = restart_stack(spec);
  const std::size_t payload = payload_bytes(spec, kScale);

  // The buddy fabric: the paper's 40 Gbps link into throttled remote NVM.
  net::Interconnect link(5.0e9, 0.05);
  NvmConfig scfg;
  scfg.capacity = round_up(payload * 2 + 16 * MiB, kNvmPageSize);
  scfg.throttle = true;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> remote_mem;

  Payload golden;
  for (int k = 0; k < o.setups; ++k) {
    remote_mem.reset();
    store.reset();
    const Stopwatch sw;
    store = std::make_unique<net::RemoteStore>(scfg);
    remote_mem = std::make_unique<net::RemoteMemory>(link, *store);
    LocalStack st(cfg, spec, kScale);
    golden = checkpoint_once(st, spec, o.seed, cfg.alloc.track_mode);
    core::RemoteCheckpointer helper({st.mgr.get()}, *remote_mem,
                                    default_remote(120.0));
    pass.op(!helper.coordinate_now().degraded, "ship to buddy");
    pass.setup_s.push_back(sw.elapsed());
    if (k + 1 == o.setups) {
      pass.detail["knobs"] = knobs_json(cfg, st);
      pass.detail["knobs"]["remote"]["resolved_codec"] =
          core::to_string(helper.codec_mode(0));
    }
  }

  begin_window(o);
  for (std::size_t i = 0; i < o.ops && !out_of_time(); ++i) {
    const Stopwatch sw;
    std::unique_ptr<LocalStack> st;
    {
      telemetry::Span span("bench_restart_attach", "bench");
      st = std::make_unique<LocalStack>(cfg, spec, kScale);
    }
    core::RestartReport rep;
    {
      telemetry::Span span("bench_restart_fetch", "bench");
      rep = core::RestartCoordinator(*st->mgr, remote_mem.get())
                .restart_after(core::FailureKind::kHard);
    }
    pass.op_ms.push_back(sw.elapsed() * 1e3);
    pass.op(rep.status == RestoreStatus::kOkFromRemote &&
                rep.chunks_remote == static_cast<int>(spec.chunks.size()),
            "hard restart status");
    pass.verify_bytes(st->chunks, golden, "hard restart bytes");
  }
  set_throughput(pass, pass.op_ms);
  if (o.traced) pass.probes = run_probes(spec, kScale, golden);
  return pass;
}

}  // namespace nvmcp::bench
