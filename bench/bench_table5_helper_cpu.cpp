// Table V: checkpoint helper core average CPU utilization.
//
// Paper (370/472/588 MB per core):
//     data/core   no-pre-copy    pre-copy
//        370        12.85%        24.48%
//        472        13.40%        25.12%
//        588        14.82%        28.31%
// "the average CPU utilization of the dedicated checkpointing core ...
// doubles, however it still remains at relatively low levels when compared
// to the node-wide CPU utilization -- at ~2.5%."
//
// Here utilization = helper time spent in transfers / helper wall time;
// pre-copy ships every committed local epoch eagerly (more rounds of
// work), no-pre-copy only the coordination bursts.
#include "apps/driver.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"

namespace {

nvmcp::apps::DriverResult run_mode(double data_scale, bool precopy) {
  using namespace nvmcp;
  // Scaling mirrors bench_fig10: time and bandwidths 1/8, per-node data
  // volume matched to the paper's 12-core node via the size scale (we run
  // 2 ranks), and the effective remote pipe set to the paper's ~0.8 GB/s
  // so transfer-time/interval ratios -- which *are* the utilization --
  // carry over.
  apps::DriverConfig cfg;
  cfg.spec = apps::WorkloadSpec::gtc();
  cfg.spec.iters_per_checkpoint = 1;  // local interval ~4 s; K ~ 3-4 locals per remote
  cfg.ranks = 2;
  cfg.iterations = 10;
  cfg.size_scale = data_scale;
  cfg.time_scale = 1.0 / 8.0;
  cfg.ckpt.local_policy = core::PrecopyPolicy::kDcpcp;
  cfg.ckpt.nvm_bw_per_core = 400.0 * MiB / 8.0;
  cfg.remote_enabled = true;
  cfg.remote.policy =
      precopy ? core::PrecopyPolicy::kCpc : core::PrecopyPolicy::kNone;
  // Local checkpoints land every ~7.5 s here; a 15 s remote interval
  // gives K=2 local checkpoints per remote one, so eager pre-copy ships
  // roughly twice the volume the coordinated burst would -- the paper's
  // helper-utilization doubling.
  cfg.remote.interval = 15.0;
  cfg.remote.scan_period = 2e-3;
  cfg.link_bw = 5.0e9 / 8.0;
  cfg.remote_nvm_bw = 0.8e9 / 8.0;
  return apps::run_workload(cfg);
}

/// remote.busy_seconds / remote.wall_seconds from the run's registry
/// (run_workload stops the helper, which sets its wall gauge).
double utilization(const nvmcp::apps::DriverResult& r) {
  const auto* busy = r.metrics->find_gauge("remote.busy_seconds");
  const auto* wall = r.metrics->find_gauge("remote.wall_seconds");
  return busy && wall && wall->value() > 0 ? busy->value() / wall->value()
                                           : 0.0;
}

}  // namespace

int main() {
  using namespace nvmcp;
  telemetry::init_from_env();
  telemetry::RunReport report("Table V");
  report.config()["workload"] = "gtc";
  report.config()["ranks"] = 2.0;
  report.config()["remote_interval_seconds"] = 15.0;
  Json& rows = report.section("rows");

  TableWriter table(
      "Table V: checkpoint helper core average utilization (paper: "
      "12.9/13.4/14.8% no-pre-copy vs 24.5/25.1/28.3% pre-copy)",
      {"data/core (paper)", "no-precopy util", "precopy util", "ratio"},
      "table5_helper_cpu.csv");

  // GTC generator is ~425 MB/core nominal; scale each row to the paper's
  // data/core, with a 12/2 factor so 2 ranks carry a 12-core node's
  // checkpoint volume.
  const double nominal_mb = 425.0;
  for (const double paper_mb : {370.0, 472.0, 588.0}) {
    const double scale = paper_mb / nominal_mb * (12.0 / 2.0) / 64.0;
    const apps::DriverResult nopc = run_mode(scale, false);
    const apps::DriverResult pc = run_mode(scale, true);
    const double u0 = utilization(nopc);
    const double u1 = utilization(pc);
    table.row({TableWriter::num(paper_mb, 0) + " MB",
               TableWriter::pct(u0), TableWriter::pct(u1),
               TableWriter::num(u0 > 0 ? u1 / u0 : 0, 2) + "x"});

    Json row;
    row["data_per_core_mb"] = paper_mb;
    row["no_precopy_utilization"] = u0;
    row["precopy_utilization"] = u1;
    row["ratio"] = u0 > 0 ? u1 / u0 : 0.0;
    if (nopc.metrics) row["no_precopy_metrics"] = nopc.metrics->to_json();
    if (pc.metrics) row["precopy_metrics"] = pc.metrics->to_json();
    rows.push_back(std::move(row));
  }
  table.print();
  std::printf("\nExpected shape: pre-copy roughly doubles helper "
              "utilization, and utilization grows with data volume.\n");

  const std::string path = bench::report_path_for("table5_helper_cpu.csv");
  if (report.write(path)) {
    std::printf("Run report: %s\n", path.c_str());
  }
  telemetry::flush_trace();
  return 0;
}
