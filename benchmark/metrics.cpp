#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace nvmcp::bench {
namespace {

constexpr double kNoBound = -1;

const char* table_name(bool trace) {
  return trace ? "per_layer" : "end_to_end";
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      // The CPU-bound workloads (restart_*, sim_frontier) set these
      // bounds: on a shared 4-vCPU VM their run-to-run spread reaches 18%,
      // while the sleep-bound checkpoint loops stay within 6% (README).
      {"latency_p50_ms", "ms", "lower", 0.25},
      {"latency_tail_ms", "ms", "lower", 0.25},
      {"throughput", "1/s", "higher", 0.25},
      {"peak_rss_mib", "MiB", "lower", 0.15},
      {"setup_s", "s", "lower", 0.25},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.blocking_p50_ms", "ms", "lower", kNoBound},
      {"core.floor_ms", "ms", "lower", kNoBound},
      {"core.excess_ms", "ms", "lower", kNoBound},
      {"core.precopy_hit_frac", "ratio", "higher", kNoBound},
      {"core.skipped_per_ckpt", "count", "higher", kNoBound},
      {"core.precopy_busy_frac", "ratio", "lower", kNoBound},
      {"core.efficiency", "ratio", "higher", kNoBound},
      {"core.durable_p50_ms", "ms", "lower", kNoBound},
      {"core.remote_busy_frac", "ratio", "lower", kNoBound},
      {"core.remote_precopy_frac", "ratio", "higher", kNoBound},
      {"core.remote_retries", "count", "lower", kNoBound},
      {"core.remote_degraded", "count", "lower", kNoBound},
      {"core.restart_attach_ms", "ms", "lower", kNoBound},
      {"core.restart_restore_ms", "ms", "lower", kNoBound},
      {"core.restart_fetch_ms", "ms", "lower", kNoBound},
      {"vmem.faults_per_ckpt", "count", "lower", kNoBound},
      {"vmem.fault_ms_per_ckpt", "ms", "lower", kNoBound},
      {"vmem.mprotect_per_ckpt", "count", "lower", kNoBound},
      {"vmem.log_bytes_per_ckpt", "B", "lower", kNoBound},
      {"vmem.log_drops", "count", "lower", kNoBound},
      {"vmem.touch_us_per_iter", "us", "lower", kNoBound},
      {"vmem.arm_us_per_chunk", "us", "lower", kNoBound},
      {"alloc.commit_GBps", "GB/s", "higher", kNoBound},
      {"alloc.restore_GBps", "GB/s", "higher", kNoBound},
      {"nvm.bytes_per_ckpt", "B", "lower", kNoBound},
      {"nvm.write_ratio", "ratio", "lower", kNoBound},
      {"nvm.write_calls_per_ckpt", "count", "lower", kNoBound},
      {"nvm.write_ms_per_ckpt", "ms", "lower", kNoBound},
      {"epoch.gc_passes", "count", "lower", kNoBound},
      {"epoch.gc_reclaimed_per_ckpt", "count", "lower", kNoBound},
      {"epoch.occupancy_max", "ratio", "lower", kNoBound},
      {"compress.ratio", "ratio", "lower", kNoBound},
      {"compress.lz_frac", "ratio", "higher", kNoBound},
      {"compress.delta_frac", "ratio", "higher", kNoBound},
      {"compress.encode_MBps", "MB/s", "higher", kNoBound},
      {"compress.decode_MBps", "MB/s", "higher", kNoBound},
      {"net.ckpt_bytes_per_cut", "B", "lower", kNoBound},
      {"net.link_bytes_ratio", "ratio", "lower", kNoBound},
      {"net.link_peak_MBps", "MB/s", "lower", kNoBound},
      {"net.app_comm_ms_per_iter", "ms", "lower", kNoBound},
      {"common.crc64_GBps", "GB/s", "higher", kNoBound},
      {"sim.events_per_run", "count", "lower", kNoBound},
      {"sim.ms_per_run", "ms", "lower", kNoBound},
      {"telemetry.trace_overhead_frac", "ratio", "lower", kNoBound},
      {"telemetry.dropped_events", "count", "lower", kNoBound},
  };
  return defs;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (t.n < 11) {
    t.value = std::numeric_limits<double>::quiet_NaN();
    return t;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank of p90 is ceil(0.9 n) (1-based; integer arithmetic keeps
  // it exact). Ten samples must lie above the reported rank, so it is at
  // most n - 10, which p90 satisfies from n = 100 on.
  const std::size_t p90_rank = (9 * t.n + 9) / 10;
  const std::size_t rank = std::min(p90_rank, t.n - 10);
  t.value = v[rank - 1];
  t.percentile = rank == p90_rank ? 90.0
                                  : 100.0 * static_cast<double>(rank) /
                                        static_cast<double>(t.n);
  return t;
}

double floor_seconds(double bytes, double streams, double bw_per_stream) {
  if (streams <= 0 || bw_per_stream <= 0) {
    throw NvmcpError("floor_seconds: streams and bandwidth must be positive");
  }
  return bytes / (streams * bw_per_stream);
}

double median_excess(const std::vector<double>& blocking,
                     const std::vector<double>& floor) {
  if (blocking.size() != floor.size()) {
    throw NvmcpError("median_excess: one floor per blocking sample");
  }
  std::vector<double> excess(blocking.size());
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    excess[i] = blocking[i] - floor[i];
  }
  return median(std::move(excess));
}

double ideal_seconds(double compute_seconds, double app_bytes,
                     double link_bw) {
  if (app_bytes > 0 && link_bw <= 0) {
    throw NvmcpError("ideal_seconds: traffic needs a positive link bandwidth");
  }
  return compute_seconds + (app_bytes > 0 ? app_bytes / link_bw : 0.0);
}

Json result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Values& values, bool trace) {
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  Json metrics = Json::object();
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      throw NvmcpError(std::string("result: missing metric ") + d.name);
    }
    if (!std::isfinite(it->second)) {
      throw NvmcpError(std::string("result: no finite value for ") + d.name);
    }
    Json m = Json::object();
    m["value"] = it->second;
    m["unit"] = d.unit;
    metrics[d.name] = std::move(m);
  }
  if (metrics.size() != values.size()) {
    for (const auto& [name, v] : values) {
      if (!metrics.find(name)) {
        throw NvmcpError("result: metric " + name + " is not in the " +
                         table_name(trace) + " table");
      }
    }
  }
  Json out = Json::object();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  out["metrics"] = std::move(metrics);
  return out;
}

}  // namespace nvmcp::bench
