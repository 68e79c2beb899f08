// Metric tables, statistics and the result schema of nvmcp_bench.
//
// The tables here are the benchmark's single source of metric names,
// units and directions; BENCHMARK.json must list exactly the same metrics
// (bench_stats_test checks that the two agree).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace nvmcp::bench {

/// One metric as BENCHMARK.json declares it. Per-layer metrics carry no
/// regression bound (bound < 0).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  double bound;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Median (mean of the two middle samples for even n); NaN when empty.
double median(std::vector<double> v);

/// The tail statistic every latency is reported with: p90 once a run has
/// at least 100 samples, otherwise the highest percentile with ten
/// samples beyond it. Nearest rank, so exactly ten or more samples lie
/// above the reported value. Refuses (NaN) below 11 samples.
struct Tail {
  double value = 0;
  double percentile = 0;  // in [0, 90]
  std::size_t n = 0;
};
Tail tail(std::vector<double> v);

/// Bandwidth floor of a coordinated commit: the time `bytes` take on
/// `streams` copier streams of `bw_per_stream` bytes/s each.
double floor_seconds(double bytes, double streams, double bw_per_stream);

/// Median over checkpoints of blocking time minus that checkpoint's floor
/// (both vectors in the same unit, one entry per checkpoint).
double median_excess(const std::vector<double>& blocking,
                     const std::vector<double>& floor);

/// The loop's ideal time: compute phases plus application traffic at full
/// link speed (no checkpoint cost, no contention).
double ideal_seconds(double compute_seconds, double app_bytes,
                     double link_bw);

using Values = std::map<std::string, double>;

/// The result object printed as the last stdout line: exactly the keys
/// correct, attempted, failed and metrics, where metrics holds every
/// end-to-end metric (trace = false) or every per-layer metric
/// (trace = true) as {"value", "unit"}. Throws NvmcpError when `values`
/// misses a metric of that table, names one outside it, or holds a value
/// that is not finite (a run that could not measure reports no result).
Json result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Values& values, bool trace);

}  // namespace nvmcp::bench
