// Multi-tenant fleet driver: several workload generators running
// concurrently as separate tenants of ONE TenantArena — one shared NVM
// device, per-tenant quotas, QoS bandwidth grants and arena-wide
// admission control. The single-app driver (driver.hpp) models one MPI
// application across ranks with barrier-coordinated checkpoints; the
// fleet models a consolidated node where unrelated applications (a KV
// store, a graph search, an HPC code) checkpoint on their own schedules
// and contend for the same NVM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/config.hpp"
#include "nvm/device.hpp"
#include "telemetry/metrics.hpp"
#include "tenant/arena.hpp"

namespace nvmcp::apps {

struct FleetTenantConfig {
  std::string name;
  WorkloadSpec spec;
  /// NVM version-slot byte quota; 0 = unmetered.
  std::size_t quota_bytes = 0;
  int priority = 1;  // 0 bulk .. 2 latency-sensitive
  double weight = 1.0;
  /// Software tracking by default: fleet tenants run on plain threads and
  /// report their own writes, avoiding cross-tenant mprotect traffic.
  vmem::TrackMode track_mode = vmem::TrackMode::kSoftware;
  core::CheckpointConfig ckpt;
  int iterations = 8;
};

struct FleetConfig {
  std::vector<FleetTenantConfig> tenants;
  double size_scale = 1.0 / 64;  // chunk bytes
  double time_scale = 1.0 / 64;  // compute_per_iter
  /// Shared arena device. capacity 0 = auto-size from the tenants'
  /// scaled checkpoint sets and the ring depth.
  NvmConfig device = [] {
    NvmConfig c;
    c.capacity = 0;
    // Bandwidth shaping is the QoS scheduler's job (per-tenant trunk
    // limiters); an unthrottled device avoids double-counting the cap.
    c.throttle = false;
    return c;
  }();
  int ring_depth = 1;     // TenantArena::Options::ring_depth
  int max_inflight = 2;   // TenantArena::Options::max_inflight
  /// Total bandwidth the QoS scheduler partitions (<0: derive from the
  /// device, which with the default unthrottled device means unlimited).
  double scheduler_bw = -1;
  std::uint64_t seed = 1234;

  /// The consolidated-node reference fleet: redis (latency-sensitive) +
  /// graph500 (normal) + GTC (bulk background) sharing one arena.
  static FleetConfig standard_fleet();
};

struct FleetTenantResult {
  std::string name;
  std::uint64_t commits = 0;   // admitted + completed rounds
  std::uint64_t rejected = 0;  // admission rejections/timeouts
  double blocking_sum = 0;     // sum of t_lcl over admitted rounds
  double admission_wait_sum = 0;
  double wall_seconds = 0;
  double granted_bw_last = 0;  // trunk grant at the run's end
  std::size_t quota_peak = 0;
  std::size_t quota_limit = 0;
};

struct FleetResult {
  double wall_seconds = 0;
  std::vector<FleetTenantResult> tenants;  // parallel to cfg.tenants
  /// The arena registry (tenant.<name>.* + arena.*), merged with every
  /// tenant manager's ckpt.* registry.
  std::shared_ptr<telemetry::MetricRegistry> metrics;
};

/// Run every tenant on its own thread (no cross-tenant barrier: each
/// application checkpoints on its own cadence through the arena's
/// admission controller).
FleetResult run_fleet(const FleetConfig& cfg);

}  // namespace nvmcp::apps
