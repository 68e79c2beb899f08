// QoS-aware bandwidth scheduler: partitions the device-global NVM write
// cap across tenants by priority + weighted fair share.
//
// Each tenant owns one StreamGroup — a single trunk BandwidthLimiter that
// every copy stream of the tenant's CheckpointManager (every copier
// worker, for commits, pre-copy and nvchkptid alike) acquires from. This replaces the
// single-tenant pattern of one private NVMBW_core stream per copy worker:
// concurrent workers acquiring one limiter share it fairly, so the trunk
// rate IS the tenant's aggregate grant. Grants are recomputed whenever a
// tenant's activity or priority changes; BandwidthLimiter::set_rate
// rebases already-queued backlog, so a repartition takes effect mid-round
// instead of after the old deadlines drain.
//
// Share model (work-conserving weighted fair share):
//   share_i = weight_i * boost^priority_i
//   base_i  = C * share_i / sum(all shares)        -- the guarantee
//   active  tenants additionally split the idle tenants' unclaimed base
//   in proportion to their shares, so a lone active tenant is granted the
//   whole cap (work conservation) while an idle tenant keeps its base for
//   background pre-copy trickle. The transient oversubscription while an
//   idle tenant trickles is bounded by its base and physically capped by
//   the device-global limiter underneath.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "nvm/throttle.hpp"

namespace nvmcp::tenant {

class BandwidthScheduler;

/// One tenant's stream group: the trunk limiter plus its QoS parameters.
/// Created and owned by the scheduler; pointers stay valid for the
/// scheduler's lifetime (reattached tenant handles reuse their group).
class StreamGroup {
 public:
  BandwidthLimiter* trunk() { return &trunk_; }
  const std::string& name() const { return name_; }
  double weight() const { return weight_; }
  int priority() const { return priority_; }
  /// Current grant in bytes/sec (0 = unlimited scheduler).
  double granted() const { return trunk_.rate(); }

 private:
  friend class BandwidthScheduler;
  StreamGroup(std::string name, double weight, int priority)
      : name_(std::move(name)), weight_(weight), priority_(priority) {}

  std::string name_;
  double weight_;
  int priority_;
  int active_ = 0;  // in-flight admitted rounds; scheduler mutex guards it
  BandwidthLimiter trunk_{0.0};
};

class BandwidthScheduler {
 public:
  struct Options {
    /// Device-global cap to partition, bytes/sec. 0 = unlimited: every
    /// trunk stays unthrottled and the scheduler only tracks activity.
    double total_bw = 0;
    /// Share multiplier per priority level: share = weight * boost^prio.
    double priority_boost = 4.0;
  };

  explicit BandwidthScheduler(Options opts) : opts_(opts) {}

  BandwidthScheduler(const BandwidthScheduler&) = delete;
  BandwidthScheduler& operator=(const BandwidthScheduler&) = delete;

  /// Register (or re-fetch) a tenant's group. An existing name returns
  /// the same group with weight/priority updated — a reattached tenant
  /// keeps its trunk, so managers already pointed at it stay valid.
  StreamGroup* register_tenant(std::string_view name, double weight,
                               int priority);

  StreamGroup* find(std::string_view name);

  /// A commit round of `g` was admitted / finished. Both rebalance: the
  /// active set changed, so every grant is recomputed and applied.
  void note_active(StreamGroup& g);
  void note_idle(StreamGroup& g);

  /// Live priority change (e.g. an operator boosting a tenant mid-run).
  void set_priority(StreamGroup& g, int priority);

  double total_bw() const { return opts_.total_bw; }
  double priority_boost() const { return opts_.priority_boost; }

 private:
  void rebalance_locked();

  Options opts_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<StreamGroup>> groups_;
};

}  // namespace nvmcp::tenant
