#include "sim/cluster_scale.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace nvmcp::sim {
namespace {

constexpr int kAppClass = 0;
constexpr int kCkptClass = 1;

/// One synchronized SPMD job over the whole topology. Per-node state is
/// deliberately tiny (an RNG stream and a barrier slot): 10k nodes cost
/// well under a megabyte, and the per-rack uplinks are the only shared
/// fluid resources, so every engine event is O(nodes_per_rack) at worst.
class ScaleSim {
 public:
  explicit ScaleSim(const ScaleConfig& cfg)
      : cfg_(cfg),
        eng_(cfg.reference_engine ? Engine::QueueKind::kBinaryHeapRef
                                  : Engine::QueueKind::kCalendar),
        topo_(cfg.topo) {
    if (cfg_.compute_per_iter <= 0 || cfg_.total_compute <= 0) {
      throw NvmcpError("scale sim: compute shape must be positive");
    }
    const bool wants_ring = cfg_.strategy != RemoteStrategy::kRSParity;
    const bool wants_rs = cfg_.strategy != RemoteStrategy::kReplication;
    if (wants_ring) {
      BuddyConfig bc;
      // Hybrid replicas exist to survive switch outages, so their ring
      // always strides past the switch domain.
      const int stride = cfg_.strategy == RemoteStrategy::kHybrid
                             ? std::max(cfg_.ring_rack_stride,
                                        topo_.racks_per_switch())
                             : cfg_.ring_rack_stride;
      bc.policy =
          stride == 0 ? BuddyPolicy::kPairwise : BuddyPolicy::kRotatingRing;
      bc.ring_rack_stride = stride;
      ring_ = std::make_unique<BuddyMap>(topo_, bc);
    }
    if (wants_rs) {
      BuddyConfig bc;
      bc.policy = BuddyPolicy::kRSGroup;
      bc.rs_k = cfg_.rs_k;
      bc.rs_m = cfg_.rs_m;
      rs_ = std::make_unique<BuddyMap>(topo_, bc);
    }

    Rng root(cfg_.seed ^ 0x5ca1ab1e0dd5eedULL);
    node_rng_.reserve(static_cast<std::size_t>(topo_.nodes()));
    for (int i = 0; i < topo_.nodes(); ++i) node_rng_.push_back(root.fork());

    // Only rack 0's uplink keeps a timeline (see
    // ScaleResult::peak_link_ckpt_rate): a 10k-node run pays for one.
    uplinks_.reserve(static_cast<std::size_t>(topo_.racks()));
    for (int r = 0; r < topo_.racks(); ++r) {
      uplinks_.push_back(std::make_unique<SharedBandwidth>(
          eng_, cfg_.rack_uplink_bw, /*timeline_bucket=*/1.0, /*classes=*/2,
          /*track_timelines=*/r == 0));
    }
  }

  ScaleResult run() {
    const double ideal = ideal_runtime();
    ScenarioConfig sc;
    sc.node_soft_mtbf = cfg_.node_soft_mtbf;
    sc.node_hard_mtbf = cfg_.node_hard_mtbf;
    sc.rack_mtbf = cfg_.rack_mtbf;
    sc.switch_mtbf = cfg_.switch_mtbf;
    sc.horizon = cfg_.scenario_horizon > 0
                     ? cfg_.scenario_horizon
                     : std::min(cfg_.max_wall, 20.0 * ideal);
    sc.seed = cfg_.seed;
    outages_ = generate_scenario(sc, topo_);
    outages_.insert(outages_.end(), cfg_.forced_outages.begin(),
                    cfg_.forced_outages.end());
    std::sort(outages_.begin(), outages_.end(),
              [](const Outage& a, const Outage& b) { return a.time < b.time; });
    for (std::size_t i = 0; i < outages_.size(); ++i) {
      eng_.schedule_at(outages_[i].time, [this, i] {
        if (!finished_) on_outage(outages_[i]);
      });
    }

    begin_iteration();
    while (!finished_ && eng_.now() < cfg_.max_wall && eng_.step()) {
    }
    if (!finished_) {
      throw NvmcpError("scale sim: did not finish before max_wall");
    }
    // Drain guarded residue (late outages, in-flight flows); a bounded
    // drain keeps a re-arm bug visible instead of hanging the run.
    std::uint64_t drain_steps = 0;
    constexpr std::uint64_t kDrainCap = 4'000'000;
    while (drain_steps < kDrainCap && eng_.step()) {
      ++drain_steps;
    }

    ScaleResult r = result_;
    r.wall = wall_;
    r.ideal = ideal;
    r.efficiency = ideal / wall_;
    r.iterations = iterations_;
    r.lost_work = lost_work_;
    r.restart_seconds = restart_seconds_;
    r.nvm_bytes = nvm_bytes_;
    r.remote_bytes = restore_bytes_;
    for (const auto& u : uplinks_) r.remote_bytes += u->total_bytes(kCkptClass);
    r.app_comm_seconds = app_comm_seconds_;
    r.peak_link_ckpt_rate = uplinks_[0]->timeline(kCkptClass).peak_rate();
    r.events_fired = eng_.events_fired();
    r.queue_drained = eng_.pending() == 0 && drain_steps < kDrainCap;
    return r;
  }

 private:
  enum class Phase { kCompute, kComm, kCkpt, kRestart };

  struct Round {
    int remaining = 0;
    double mark = 0;
    bool is_replica = false;
  };

  double ideal_runtime() const {
    const double iters =
        std::ceil(cfg_.total_compute / cfg_.compute_per_iter);
    const double comm_share =
        cfg_.rack_uplink_bw / static_cast<double>(topo_.nodes_per_rack());
    return cfg_.total_compute +
           iters * cfg_.comm_bytes_per_iter / comm_share;
  }

  SharedBandwidth& uplink_of(int node) {
    return *uplinks_[static_cast<std::size_t>(topo_.rack_of(node))];
  }

  double jitter(int node) {
    return 1.0 + cfg_.compute_jitter *
                     node_rng_[static_cast<std::size_t>(node)].exponential(1.0);
  }

  // ---- application loop -------------------------------------------------
  void begin_iteration() {
    if (compute_done_ >= cfg_.total_compute - 1e-12) {
      finish();
      return;
    }
    phase_ = Phase::kCompute;
    iter_start_ = eng_.now();
    iter_work_ =
        std::min(cfg_.compute_per_iter, cfg_.total_compute - compute_done_);
    barrier_ = topo_.nodes();
    const int gen = generation_;
    for (int i = 0; i < topo_.nodes(); ++i) {
      eng_.schedule_in(iter_work_ * jitter(i), [this, gen] {
        if (gen != generation_ || finished_) return;
        if (--barrier_ == 0) begin_comm();
      });
    }
  }

  void begin_comm() {
    phase_ = Phase::kComm;
    comm_start_ = eng_.now();
    barrier_ = topo_.nodes();
    const int gen = generation_;
    for (int i = 0; i < topo_.nodes(); ++i) {
      uplink_of(i).submit(cfg_.comm_bytes_per_iter, kAppClass,
                          [this, gen](double) {
                            if (gen != generation_ || finished_) return;
                            if (--barrier_ == 0) end_comm();
                          });
    }
  }

  void end_comm() {
    app_comm_seconds_ += eng_.now() - comm_start_;
    compute_done_ += iter_work_;
    iter_work_ = 0;
    ++iterations_;
    if (eng_.now() - last_local_ckpt_ >= cfg_.local_interval &&
        compute_done_ < cfg_.total_compute) {
      begin_local_checkpoint();
    } else {
      begin_iteration();
    }
  }

  // ---- checkpointing ----------------------------------------------------
  void begin_local_checkpoint() {
    phase_ = Phase::kCkpt;
    ckpt_start_ = eng_.now();
    barrier_ = topo_.nodes();
    const double residual =
        (cfg_.precopy && result_.local_checkpoints > 0)
            ? cfg_.precopy_residual
            : 1.0;
    // Pre-copy streams the rest during compute; account the inflated NVM
    // traffic analytically instead of spending one background flow per
    // node per iteration on it.
    nvm_bytes_ += static_cast<double>(topo_.nodes()) * cfg_.ckpt_bytes *
                  (residual < 1.0 ? cfg_.precopy_inflation : 1.0);
    const double base = cfg_.ckpt_bytes * residual / cfg_.nvm_bw;
    const int gen = generation_;
    for (int i = 0; i < topo_.nodes(); ++i) {
      eng_.schedule_in(base * jitter(i), [this, gen] {
        if (gen != generation_ || finished_) return;
        if (--barrier_ == 0) end_local_checkpoint();
      });
    }
  }

  void end_local_checkpoint() {
    ++result_.local_checkpoints;
    result_.local_blocking += eng_.now() - ckpt_start_;
    last_local_ckpt_ = eng_.now();
    committed_local_ = compute_done_;
    maybe_remote();
    begin_iteration();  // remote traffic overlaps the next compute phase
  }

  double primary_bytes_per_node() const {
    switch (cfg_.strategy) {
      case RemoteStrategy::kReplication:
        return cfg_.ckpt_bytes;
      case RemoteStrategy::kRSParity:
      case RemoteStrategy::kHybrid:
        return cfg_.ckpt_bytes * static_cast<double>(cfg_.rs_m) /
               static_cast<double>(cfg_.rs_k);
    }
    return cfg_.ckpt_bytes;
  }

  void maybe_remote() {
    if (!cfg_.remote_enabled) return;
    const double per_node = primary_bytes_per_node();
    if (cfg_.precopy) {
      // Ship this local interval's slice asynchronously (paper pre-copy:
      // spread the cut over the local intervals it spans).
      const double k =
          std::max(1.0, cfg_.remote_interval / cfg_.local_interval);
      submit_round(per_node / k, /*commit=*/false, /*is_replica=*/false);
    }
    if (eng_.now() - last_remote_ckpt_ >= cfg_.remote_interval) {
      const double bytes =
          cfg_.precopy ? per_node * cfg_.precopy_residual : per_node;
      submit_round(bytes, /*commit=*/true,
                   cfg_.strategy == RemoteStrategy::kReplication);
      if (cfg_.strategy == RemoteStrategy::kHybrid &&
          ++hybrid_cut_index_ % std::max(1, cfg_.hybrid_replica_every) == 0) {
        // The infrequent full replica rides the same coordination point.
        submit_round(cfg_.ckpt_bytes, /*commit=*/true, /*is_replica=*/true);
      }
      last_remote_ckpt_ = eng_.now();
    }
  }

  void submit_round(double bytes_per_node, bool commit, bool is_replica) {
    const int gen = generation_;
    if (!commit) {
      for (int i = 0; i < topo_.nodes(); ++i) {
        uplink_of(i).submit(bytes_per_node, kCkptClass, nullptr);
      }
      return;
    }
    auto round = std::make_shared<Round>();
    round->remaining = topo_.nodes();
    round->mark = committed_local_;
    round->is_replica = is_replica;
    for (int i = 0; i < topo_.nodes(); ++i) {
      uplink_of(i).submit(
          bytes_per_node, kCkptClass, [this, gen, round](double) {
            if (gen != generation_ || finished_) return;
            if (--round->remaining == 0) {
              ++result_.remote_cuts;
              if (round->is_replica) {
                committed_replica_ = round->mark;
              } else {
                committed_rs_ = round->mark;
              }
            }
          });
    }
  }

  // ---- failures ---------------------------------------------------------
  /// Compute-seconds (per node) of the in-flight iteration a failure right
  /// now destroys: the elapsed slice mid-compute, the whole iteration once
  /// compute finished but the barrier has not credited it.
  double lost_in_iteration() const {
    if (iter_work_ <= 0) return 0;
    switch (phase_) {
      case Phase::kCompute:
        return std::min(iter_work_, eng_.now() - iter_start_);
      case Phase::kComm:
        return iter_work_;
      default:
        return 0;
    }
  }

  void rollback_to(double mark, double lost_in_iter) {
    lost_work_ += (compute_done_ + lost_in_iter - mark) *
                  static_cast<double>(topo_.nodes());
    compute_done_ = mark;
    committed_local_ = mark;
  }

  void on_outage(const Outage& o) {
    switch (o.kind) {
      case OutageKind::kNodeSoft: ++result_.soft_failures; break;
      case OutageKind::kNodeHard: ++result_.hard_failures; break;
      case OutageKind::kRackOutage: ++result_.rack_outages; break;
      case OutageKind::kSwitchOutage: ++result_.switch_outages; break;
    }
    ++generation_;
    for (auto& u : uplinks_) u->cancel_all();
    const double lost_in_iter = lost_in_iteration();
    double restart = 0;

    if (o.kind == OutageKind::kNodeSoft) {
      // Process crash: every node's local NVM survives; the whole job
      // stalls and rolls back to the coordinated local cut.
      rollback_to(committed_local_, lost_in_iter);
      restart = cfg_.restart_local_factor * cfg_.ckpt_bytes / cfg_.nvm_bw;
      ++result_.recoveries_local;
    } else {
      const std::vector<int> failed = affected_nodes(o, topo_);
      std::vector<char> is_failed(static_cast<std::size_t>(topo_.nodes()), 0);
      std::vector<int> per_rack(static_cast<std::size_t>(topo_.racks()), 0);
      for (int n : failed) {
        is_failed[static_cast<std::size_t>(n)] = 1;
        ++per_rack[static_cast<std::size_t>(topo_.rack_of(n))];
      }
      const int max_in_rack =
          *std::max_element(per_rack.begin(), per_rack.end());

      bool rs_ok = rs_ != nullptr;
      if (rs_ok) {
        std::vector<int> group_loss(static_cast<std::size_t>(rs_->group_count()),
                                    0);
        for (int n : failed) {
          ++group_loss[static_cast<std::size_t>(rs_->group_of(n))];
        }
        for (int n : failed) {
          const int g = rs_->group_of(n);
          if (group_loss[static_cast<std::size_t>(g)] > rs_->group_parity(g)) {
            rs_ok = false;
            break;
          }
        }
      }
      bool buddy_ok = ring_ != nullptr;
      if (buddy_ok) {
        for (int n : failed) {
          const int b = ring_->buddy_of(n);
          if (b == n || is_failed[static_cast<std::size_t>(b)]) {
            buddy_ok = false;
            break;
          }
        }
      }

      const double nfailed = static_cast<double>(failed.size());
      if (rs_ok) {
        // Parity rebuild reads k surviving shares per lost image; the
        // failed nodes in one rack share that rack's uplink.
        rollback_to(committed_rs_, lost_in_iter);
        restart = cfg_.restart_remote_factor * static_cast<double>(cfg_.rs_k) *
                  cfg_.ckpt_bytes * max_in_rack / cfg_.rack_uplink_bw;
        restore_bytes_ += nfailed * cfg_.rs_k * cfg_.ckpt_bytes;
        ++result_.recoveries_parity;
      } else if (buddy_ok) {
        rollback_to(committed_replica_, lost_in_iter);
        restart = cfg_.restart_remote_factor * cfg_.ckpt_bytes * max_in_rack /
                  cfg_.rack_uplink_bw;
        restore_bytes_ += nfailed * cfg_.ckpt_bytes;
        ++result_.recoveries_buddy;
      } else {
        // No surviving redundancy for at least one lost image: the job
        // restarts from scratch. This cliff is what the frontier maps.
        ++result_.unrecoverable;
        lost_work_ += (compute_done_ + lost_in_iter) *
                      static_cast<double>(topo_.nodes());
        compute_done_ = 0;
        committed_local_ = committed_rs_ = committed_replica_ = 0;
        restart = cfg_.restart_local_factor * cfg_.ckpt_bytes / cfg_.nvm_bw;
      }
    }

    phase_ = Phase::kRestart;
    iter_work_ = 0;
    restart_seconds_ += restart;
    const int gen = generation_;
    eng_.schedule_in(restart, [this, gen] {
      if (gen != generation_ || finished_) return;
      begin_iteration();
    });
  }

  void finish() {
    finished_ = true;
    wall_ = eng_.now();
  }

  const ScaleConfig& cfg_;
  Engine eng_;
  Topology topo_;
  std::unique_ptr<BuddyMap> ring_;
  std::unique_ptr<BuddyMap> rs_;
  std::vector<Rng> node_rng_;
  std::vector<std::unique_ptr<SharedBandwidth>> uplinks_;
  std::vector<Outage> outages_;

  int generation_ = 0;
  bool finished_ = false;
  double wall_ = 0;
  Phase phase_ = Phase::kCompute;

  double compute_done_ = 0;
  double iter_work_ = 0;
  double iter_start_ = 0;
  double comm_start_ = 0;
  double ckpt_start_ = 0;
  int barrier_ = 0;
  int iterations_ = 0;

  double committed_local_ = 0;
  double committed_rs_ = 0;       // newest surviving RS parity cut
  double committed_replica_ = 0;  // newest surviving ring replica cut
  double last_local_ckpt_ = 0;
  double last_remote_ckpt_ = 0;
  int hybrid_cut_index_ = 0;

  double lost_work_ = 0;
  double restart_seconds_ = 0;
  double nvm_bytes_ = 0;
  double restore_bytes_ = 0;
  double app_comm_seconds_ = 0;
  ScaleResult result_;  // counters filled in-place
};

}  // namespace

const char* to_string(RemoteStrategy s) {
  switch (s) {
    case RemoteStrategy::kReplication: return "replication";
    case RemoteStrategy::kRSParity: return "rs-parity";
    case RemoteStrategy::kHybrid: return "hybrid";
  }
  return "?";
}

ScaleResult run_scale_cluster(const ScaleConfig& cfg) {
  ScaleSim sim(cfg);
  return sim.run();
}

}  // namespace nvmcp::sim
