// MetricRegistry: thread-safe named counters, gauges, and histograms.
//
// One registry is the single home for a component's measurements; the
// remaining legacy stats struct (core::CheckpointStats) is a thin
// snapshot view over its owner's registry. Lookup by name is
// mutex-guarded and meant for construction time; the returned handles are
// stable for the registry's lifetime and updates on them are lock-free
// (counters, gauges) or behind a per-metric mutex (histograms), so hot
// paths never touch the registry lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace nvmcp {
class Json;
}

namespace nvmcp::telemetry {

/// Monotonically increasing event/byte count. Lock-free.
class Counter {
 public:
  void add(std::uint64_t d = 1) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value (set) or accumulating (add) double. Lock-free.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Thread-safe distribution: fixed-bucket histogram for percentiles plus
/// Welford summary for mean/extrema. One mutex per metric.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets)
      : hist_(lo, hi, buckets) {}

  void observe(double x) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
    stats_.add(x);
  }

  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.count();
  }
  OnlineStats summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  Histogram buckets() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  double percentile(double p) const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.percentile(p);
  }

  void merge_from(const HistogramMetric& other) {
    const Histogram oh = other.buckets();
    const OnlineStats os = other.summary();
    std::lock_guard<std::mutex> lock(mu_);
    hist_.merge(oh);
    stats_.merge(os);
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
  OnlineStats stats_;
};

/// Point-in-time value of one metric (histograms carry their summary).
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0;         // counter/gauge value; histogram sample count
  std::uint64_t count = 0;  // histogram only
  double mean = 0, min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create by name. The reference stays valid for the registry's
  /// lifetime. A name registered as one kind must not be reused as another
  /// (throws).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& name) const;

  /// Consistent-enough snapshot of every metric, sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

  /// Sum `other` into this registry: counters and gauges add, histograms
  /// merge (created here with the source's bucket layout when absent).
  /// Used to aggregate per-rank registries into a run-level view.
  void merge(const MetricRegistry& other);

  /// Snapshot as a JSON object {name: value | {histogram summary}}.
  Json to_json() const;

  /// Process-wide registry for components without a natural owner.
  static MetricRegistry& global();

 private:
  mutable std::mutex mu_;  // guards the maps only, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> hists_;
};

}  // namespace nvmcp::telemetry
