// Per-tenant NVM capacity quota.
//
// A CapacityQuota meters the checkpoint-slot bytes a tenant holds inside a
// shared container: the VersionRing charges it when a commit acquires a
// slot whose region it must allocate, and credits it back when regions
// are reclaimed, when the ring is dropped, or when the device has no room
// for the region it charged for. Enforcement is at *acquisition* —
// a charge that would exceed the limit fails before any region is
// allocated, so a tenant can never hold more than its budget and quota
// pressure resolves inside the tenant's own ring (self-eviction) instead
// of leaning on the shared GC to evict someone else's epochs. A commit
// with no slot of its own to recycle is refused.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>

#include "common/error.hpp"

namespace nvmcp::vmem {

class CapacityQuota {
 public:
  /// limit of 0 = unlimited (metering only).
  explicit CapacityQuota(std::size_t limit_bytes = 0, std::string name = {})
      : limit_(limit_bytes), name_(std::move(name)) {}

  CapacityQuota(const CapacityQuota&) = delete;
  CapacityQuota& operator=(const CapacityQuota&) = delete;

  /// Charge `bytes` against the quota; returns false (and charges
  /// nothing) if the charge would exceed the limit.
  [[nodiscard]] bool try_charge(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (limit_ != 0 && used_ + bytes > limit_) {
      ++rejections_;
      return false;
    }
    used_ += bytes;
    if (used_ > peak_) peak_ = used_;
    return true;
  }

  /// Charge or throw — used where the caller has no fallback (re-charging
  /// a ring's existing footprint to a newly attached quota).
  void charge(std::size_t bytes) {
    if (!try_charge(bytes)) {
      throw NvmcpError("capacity quota exceeded for tenant '" + name_ +
                       "': used " + std::to_string(used()) + " + " +
                       std::to_string(bytes) + " > limit " +
                       std::to_string(limit_));
    }
  }

  void credit(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }

  std::size_t limit() const { return limit_; }
  const std::string& name() const { return name_; }

  std::size_t used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }

  /// High-water mark of `used` — the isolation invariant is peak <= limit,
  /// which holds by construction (charges are rejected, never rolled
  /// back); benches assert it anyway as the tripwire.
  std::size_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  std::size_t rejections() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejections_;
  }

  /// used / limit, 0 when unlimited — the per-tenant analogue of
  /// NvmDevice::occupancy(), used as the quota-GC saturation signal.
  double occupancy() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (limit_ == 0) return 0.0;
    return static_cast<double>(used_) / static_cast<double>(limit_);
  }

 private:
  mutable std::mutex mu_;
  const std::size_t limit_;
  const std::string name_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
  std::size_t rejections_ = 0;
};

}  // namespace nvmcp::vmem
