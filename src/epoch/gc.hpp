// Background version-ring garbage collector.
//
// Periodically checks device occupancy against a watermark (the cpf
// executive's `is_saturated` shape) and reclaims the globally-oldest
// unpinned, non-newest ring slots until the device drops back below the
// watermark -- never shrinking any chunk's retained epochs below the
// configured floor. Exports epoch.gc.* telemetry through the registry it
// is given (the owning CheckpointManager's).
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "epoch/directory.hpp"
#include "telemetry/metrics.hpp"

namespace nvmcp::epoch {

class EpochGc {
 public:
  struct Options {
    /// Device occupancy above which reclamation starts.
    double watermark = 0.85;
    /// Minimum committed epochs retained per chunk (at most the depth).
    int floor = 2;
    /// Seconds between occupancy checks.
    double period = 2e-3;
  };

  EpochGc(EpochDirectory& dir, Options opts,
          telemetry::MetricRegistry* metrics);
  ~EpochGc();

  EpochGc(const EpochGc&) = delete;
  EpochGc& operator=(const EpochGc&) = delete;

  void start();
  void stop();

  /// One synchronous pass (also what the background thread runs); exposed
  /// so tests and benches can drive the GC deterministically.
  GcPassStats run_pass();

  double watermark() const { return watermark_; }
  std::uint32_t floor() const { return floor_; }

 private:
  void loop();

  EpochDirectory* dir_;
  double watermark_;
  std::uint32_t floor_;
  double period_;

  telemetry::Counter* passes_ = nullptr;
  telemetry::Counter* slots_reclaimed_ = nullptr;
  telemetry::Counter* bytes_reclaimed_ = nullptr;
  telemetry::Gauge* occupancy_ = nullptr;
  telemetry::Gauge* saturated_ = nullptr;
  telemetry::Gauge* retained_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace nvmcp::epoch
