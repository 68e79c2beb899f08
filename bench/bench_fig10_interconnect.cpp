// Fig 10: LAMMPS peak interconnect usage -- checkpoint bytes on the link
// over application time, asynchronous no-pre-copy vs pre-copy remote
// checkpointing.
//
// Paper: "'no pre-copy' requires moving all data at once, which
// substantially increases the peak interconnect usage. In case of the
// pre-copy based approach, the peak resource usage is almost half the 'no
// pre-copy' case ... the high peak resource usage in the initial
// application stages of the pre-copy approach is due to the learning
// phase." Abstract: "the pre-copy method can reduce peak interconnect
// usage up to 46%."
//
// Runs the real multi-rank driver with a shared interconnect; the helper
// thread ships committed chunks either eagerly (pre-copy) or in
// coordination bursts (no pre-copy). The timeline below is the figure.
#include <algorithm>
#include <cmath>

#include "apps/driver.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"

namespace {

nvmcp::apps::DriverResult run_mode(bool precopy) {
  using namespace nvmcp;
  // Scaling: sizes 1/64, time and bandwidths 1/8. Because sizes shrink
  // faster than bandwidths, modeled transfer times stay well above the
  // per-chunk CPU costs (checksums, staging copies) that do not scale,
  // and every transfer-time/interval ratio matches the paper's setup
  // (size/bw scale = 1/8 = time scale).
  apps::DriverConfig cfg;
  cfg.spec = apps::WorkloadSpec::lammps_rhodo();
  cfg.spec.iters_per_checkpoint = 4;   // local interval = 40 s / 8 = 5 s
  cfg.ranks = 4;
  cfg.iterations = 16;
  cfg.size_scale = 1.0 / 64.0;
  cfg.time_scale = 1.0 / 8.0;
  cfg.ckpt.local_policy =
      precopy ? core::PrecopyPolicy::kDcpcp : core::PrecopyPolicy::kNone;
  cfg.ckpt.nvm_bw_per_core = 400.0 * MiB / 8.0;
  cfg.remote_enabled = true;
  cfg.remote.policy =
      precopy ? core::PrecopyPolicy::kCpc : core::PrecopyPolicy::kNone;
  cfg.remote.interval = 47.0 / 8.0;
  cfg.remote.scan_period = 2e-3;
  cfg.link_bw = 5.0e9 / 8.0;
  cfg.remote_nvm_bw = 2.0e9 / 8.0;
  cfg.link_timeline_bucket = 0.25;
  return apps::run_workload(cfg);
}

}  // namespace

namespace {

/// Peak bucket rate over the buckets that start at or after `from` and
/// end by `to`.
double window_peak(const nvmcp::apps::DriverResult& r, double from,
                   double to) {
  const double w = r.link_timeline_bucket;
  double peak = 0;
  for (std::size_t i = 0; i < r.ckpt_link_timeline.size(); ++i) {
    const double start = static_cast<double>(i) * w;
    if (start < from || start + w > to) continue;
    peak = std::max(peak, r.ckpt_link_timeline[i] / w);
  }
  return peak;
}

/// Peak bucket rate ignoring the first remote interval (the pre-copy
/// learning phase, whose spike the paper calls out separately).
double steady_peak(const nvmcp::apps::DriverResult& r,
                   double learn_window) {
  return window_peak(r, learn_window, HUGE_VAL);
}

/// Peak bucket rate during application execution after the learning
/// phase: the window the paper's Fig 10 plots (the final seal runs after
/// the application has finished).
double exec_peak(const nvmcp::apps::DriverResult& r, double learn_window) {
  return window_peak(r, learn_window, r.app_end_link_seconds);
}

/// Peak bucket rate of the final seal: every bucket that ends after the
/// application did.
double seal_peak(const nvmcp::apps::DriverResult& r) {
  const double w = r.link_timeline_bucket;
  return window_peak(r, std::floor(r.app_end_link_seconds / w) * w,
                     HUGE_VAL);
}

/// One mode's slice of the run report: driver metrics snapshot, the link
/// timeline, and the legacy stats structs for cross-checking.
void report_mode(nvmcp::Json& out, const nvmcp::apps::DriverResult& r) {
  using nvmcp::Json;
  if (r.metrics) out["metrics"] = r.metrics->to_json();
  Json& timeline = out["ckpt_link_timeline"];
  timeline["bucket_seconds"] = r.link_timeline_bucket;
  Json& values = timeline["values"];
  values = Json::Array{};
  for (const double v : r.ckpt_link_timeline) values.push_back(v);
  out["peak_ckpt_link_rate"] = r.peak_ckpt_link_rate;
  out["app_end_link_seconds"] = r.app_end_link_seconds;
  out["final_seal_seconds"] = r.final_seal_seconds;
  out["seal_peak_rate"] = seal_peak(r);
  // Legacy struct values: must agree with the registry counters above
  // (CheckpointManager::stats() is a view over the same registry; the
  // remote helper reports through its registry alone).
  Json& legacy = out["legacy_stats"];
  legacy["ckpt_bytes_coordinated"] =
      static_cast<double>(r.ckpt.bytes_coordinated);
  legacy["ckpt_bytes_precopied"] =
      static_cast<double>(r.ckpt.bytes_precopied);
  legacy["link_checkpoint_bytes"] =
      static_cast<double>(r.link.checkpoint_bytes);
}

}  // namespace

int main() {
  using namespace nvmcp;
  telemetry::init_from_env();
  const apps::DriverResult nopc = run_mode(false);
  const apps::DriverResult pc = run_mode(true);

  TableWriter table(
      "Fig 10: checkpoint bytes over the interconnect per 0.1 s window "
      "(paper: pre-copy peak ~half of no-pre-copy, up to 46% lower)",
      {"t (s)", "no-precopy bytes", "precopy bytes"},
      "fig10_interconnect.csv");
  const std::size_t rows =
      std::max(nopc.ckpt_link_timeline.size(), pc.ckpt_link_timeline.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const double a =
        i < nopc.ckpt_link_timeline.size() ? nopc.ckpt_link_timeline[i] : 0;
    const double b =
        i < pc.ckpt_link_timeline.size() ? pc.ckpt_link_timeline[i] : 0;
    if (a == 0 && b == 0) continue;  // keep the printed figure compact
    table.row({TableWriter::num(static_cast<double>(i) *
                                    nopc.link_timeline_bucket, 1),
               format_bytes(a), format_bytes(b)});
  }
  table.print();

  std::printf("\nPeak interconnect usage (whole run): no-precopy %s, "
              "precopy %s -> reduction %.0f%%\n",
              format_bandwidth(nopc.peak_ckpt_link_rate).c_str(),
              format_bandwidth(pc.peak_ckpt_link_rate).c_str(),
              (1.0 - pc.peak_ckpt_link_rate / nopc.peak_ckpt_link_rate) *
                  100.0);
  const double learn_window = 47.0 / 8.0 + 0.5;  // first remote interval
  const double sp_nopc = steady_peak(nopc, learn_window);
  const double sp_pc = steady_peak(pc, learn_window);
  std::printf("Peak after the learning phase (t >= %.1f s): no-precopy %s, "
              "precopy %s -> reduction %.0f%% (paper: up to 46%%; the "
              "initial pre-copy spike is its learning phase)\n",
              learn_window, format_bandwidth(sp_nopc).c_str(),
              format_bandwidth(sp_pc).c_str(),
              (1.0 - sp_pc / sp_nopc) * 100.0);
  const double ep_nopc = exec_peak(nopc, learn_window);
  const double ep_pc = exec_peak(pc, learn_window);
  std::printf("Peak during execution (%.1f s <= t < application end): "
              "no-precopy %s, precopy %s -> reduction %.0f%% (the "
              "paper's comparison)\n",
              learn_window, format_bandwidth(ep_nopc).c_str(),
              format_bandwidth(ep_pc).c_str(),
              (1.0 - ep_pc / ep_nopc) * 100.0);
  std::printf("Final seal after the application ends: no-precopy %.2f s "
              "(peak %s), precopy %.2f s (peak %s)\n",
              nopc.final_seal_seconds,
              format_bandwidth(seal_peak(nopc)).c_str(),
              pc.final_seal_seconds,
              format_bandwidth(seal_peak(pc)).c_str());
  std::printf("Total checkpoint bytes shipped: no-precopy %s, precopy %s "
              "(pre-copy moves more in total; that is its price)\n",
              format_bytes(static_cast<double>(nopc.link.checkpoint_bytes))
                  .c_str(),
              format_bytes(static_cast<double>(pc.link.checkpoint_bytes))
                  .c_str());

  telemetry::RunReport report("Fig 10");
  report.config()["workload"] = "lammps_rhodo";
  report.config()["ranks"] = 4.0;
  report.config()["remote_interval_seconds"] = 47.0 / 8.0;
  report_mode(report.section("no_precopy"), nopc);
  report_mode(report.section("precopy"), pc);
  report.root()["peak_reduction"] =
      1.0 - pc.peak_ckpt_link_rate / nopc.peak_ckpt_link_rate;
  report.root()["steady_peak_reduction"] =
      1.0 - sp_pc / sp_nopc;
  report.root()["exec_peak_reduction"] = 1.0 - ep_pc / ep_nopc;
  const std::string path = bench::report_path_for("fig10_interconnect.csv");
  if (report.write(path)) {
    std::printf("Run report: %s\n", path.c_str());
  }
  telemetry::flush_trace();
  return 0;
}
