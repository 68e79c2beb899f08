// sim_frontier: the 10240-node point of the cluster simulator's efficiency
// frontier, cycling the three placement strategies over seeds derived
// from the run seed. Runs differ in size with the failures their seed
// draws, so each run's latency is reported per million fired events.
#include "bench.hpp"
#include "common/clock.hpp"
#include "sim/cluster_scale.hpp"

namespace nvmcp::bench {
namespace {

using sim::RemoteStrategy;
using sim::ScaleConfig;
using sim::ScaleResult;

constexpr int kNodes = 10240;
constexpr std::uint64_t kSalt = 5;

/// The frontier configuration of the cluster-scale bench (fixed
/// per-entity failure rates, so correlated outages are routine at 10k
/// nodes).
ScaleConfig frontier_config(RemoteStrategy strategy, std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.topo.nodes = kNodes;
  cfg.topo.nodes_per_rack = 16;
  cfg.topo.racks_per_switch = 8;
  cfg.strategy = strategy;
  // Replication is the paper's in-rack pairwise buddy.
  cfg.ring_rack_stride = strategy == RemoteStrategy::kReplication ? 0 : 1;
  cfg.compute_per_iter = 4.0;
  cfg.compute_jitter = 0.01;
  cfg.comm_bytes_per_iter = 0.8e9;
  cfg.total_compute = 240.0;
  cfg.ckpt_bytes = 4.7e9;
  cfg.local_interval = 40.0;
  cfg.remote_interval = 120.0;
  cfg.node_soft_mtbf = 2.0e6;
  cfg.node_hard_mtbf = 1.0e7;
  cfg.rack_mtbf = 3.0e5;
  cfg.switch_mtbf = 2.0e5;
  cfg.seed = seed;
  return cfg;
}

ScaleConfig run_config(std::uint64_t seed, std::size_t i) {
  static constexpr RemoteStrategy kStrategies[] = {
      RemoteStrategy::kReplication, RemoteStrategy::kRSParity,
      RemoteStrategy::kHybrid};
  return frontier_config(kStrategies[i % 3],
                         derive_seed(seed, kSalt + i / 3));
}

bool same_result(const ScaleResult& a, const ScaleResult& b) {
  return a.wall == b.wall && a.ideal == b.ideal &&
         a.efficiency == b.efficiency && a.iterations == b.iterations &&
         a.local_checkpoints == b.local_checkpoints &&
         a.remote_cuts == b.remote_cuts &&
         a.soft_failures == b.soft_failures &&
         a.hard_failures == b.hard_failures &&
         a.rack_outages == b.rack_outages &&
         a.switch_outages == b.switch_outages &&
         a.recoveries_local == b.recoveries_local &&
         a.recoveries_buddy == b.recoveries_buddy &&
         a.recoveries_parity == b.recoveries_parity &&
         a.unrecoverable == b.unrecoverable && a.lost_work == b.lost_work &&
         a.restart_seconds == b.restart_seconds &&
         a.nvm_bytes == b.nvm_bytes && a.remote_bytes == b.remote_bytes &&
         a.app_comm_seconds == b.app_comm_seconds &&
         a.events_fired == b.events_fired &&
         a.queue_drained == b.queue_drained;
}

bool plausible(const ScaleResult& r) {
  return r.queue_drained && r.efficiency > 0.0 && r.efficiency <= 1.0;
}

}  // namespace

Pass run_sim_frontier(const PassOptions& o) {
  Pass pass;
  // Set-up is one warm-up run of a configuration that does not depend on
  // the run seed (so its cost does not either); repeating it must
  // reproduce the same result bit for bit.
  const ScaleConfig first = run_config(0, 0);
  ScaleResult reference;
  for (int k = 0; k < o.setups; ++k) {
    const Stopwatch sw;
    const ScaleResult r = sim::run_scale_cluster(first);
    pass.setup_s.push_back(sw.elapsed());
    if (k == 0) {
      reference = r;
      pass.op(plausible(r), "set-up run");
    } else {
      pass.verify(same_result(r, reference), "set-up rerun determinism");
    }
  }

  double events = 0, seconds = 0;
  std::size_t runs = 0;
  begin_window(o);
  for (; runs < o.ops && !out_of_time(); ++runs) {
    const ScaleConfig cfg = run_config(o.seed, runs);
    const Stopwatch sw;
    ScaleResult r;
    {
      telemetry::Span span("bench_sim_run", "bench");
      r = sim::run_scale_cluster(cfg);
    }
    const double t = sw.elapsed();
    pass.op(plausible(r), "sim run");
    const double ev = static_cast<double>(r.events_fired);
    pass.op_ms.push_back(ev > 0 ? t * 1e3 / (ev / 1e6) : 0.0);
    events += ev;
    seconds += t;
  }
  pass.verify(same_result(sim::run_scale_cluster(first), reference),
              "rerun of the set-up configuration");

  pass.work = events;
  pass.work_seconds = seconds;
  pass.layers["sim.events_per_run"] =
      runs ? events / static_cast<double>(runs) : 0.0;
  pass.detail["runs"] = static_cast<double>(runs);
  pass.detail["nodes"] = kNodes;
  return pass;
}

}  // namespace nvmcp::bench
