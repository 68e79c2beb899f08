// Determinism equivalence: the calendar-queue engine and the legacy
// binary-heap reference engine must fire identical (time, seq) orders for
// the same program, and the cluster simulator must produce bit-identical
// results on either backend for the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/cluster_scale.hpp"
#include "sim/engine.hpp"

namespace nvmcp::sim {
namespace {

struct Fired {
  double time;
  int id;
  bool operator==(const Fired& o) const { return time == o.time && id == o.id; }
};

// Replay one pseudo-random event program (self-rescheduling events, mixed
// time scales, ties, cancellations) and record the exact fire order.
std::vector<Fired> replay(Engine::QueueKind kind, std::uint64_t seed) {
  Engine eng(kind);
  Rng rng(seed);
  std::vector<Fired> fired;
  std::vector<EventHandle> handles;
  int next_id = 0;
  int scheduled = 0;
  constexpr int kBudget = 20000;

  std::function<void(int)> body = [&](int id) {
    fired.push_back({eng.now(), id});
    const double u = rng.next_double();
    int children = 0;
    if (u < 0.55) {
      children = 1;
    } else if (u < 0.80) {
      children = 2;
    }  // else leaf
    for (int c = 0; c < children && scheduled < kBudget; ++c, ++scheduled) {
      double dt;
      const double v = rng.next_double();
      if (v < 0.40) {
        dt = 0.0;  // exact tie with now: seq order must decide
      } else if (v < 0.90) {
        dt = rng.next_double() * 3.0;
      } else {
        dt = 500.0 + rng.next_double() * 5000.0;  // far outlier
      }
      const int id2 = next_id++;
      handles.push_back(eng.schedule_in(dt, [&body, id2] { body(id2); }));
    }
    // Occasionally cancel a random live handle (same draw sequence on both
    // backends, so the cancelled set is identical).
    if (!handles.empty() && rng.next_double() < 0.10) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.next_double() *
                                   static_cast<double>(handles.size()));
      handles[std::min(pick, handles.size() - 1)].cancel();
    }
  };

  for (int i = 0; i < 32; ++i, ++scheduled) {
    const int id = next_id++;
    handles.push_back(
        eng.schedule_at(rng.next_double() * 2.0, [&body, id] { body(id); }));
  }
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  return fired;
}

TEST(SimDeterminism, CalendarMatchesReferenceHeapFireOrder) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    const std::vector<Fired> cal = replay(Engine::QueueKind::kCalendar, seed);
    const std::vector<Fired> ref =
        replay(Engine::QueueKind::kBinaryHeapRef, seed);
    ASSERT_EQ(cal.size(), ref.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cal.size(); ++i) {
      ASSERT_TRUE(cal[i] == ref[i])
          << "seed " << seed << " event " << i << ": calendar ("
          << cal[i].time << "," << cal[i].id << ") vs heap (" << ref[i].time
          << "," << ref[i].id << ")";
    }
  }
}

TEST(SimDeterminism, ScaleClusterBitIdenticalAcrossEngines) {
  ScaleConfig cfg;
  cfg.topo.nodes = 256;
  cfg.strategy = RemoteStrategy::kHybrid;
  cfg.total_compute = 60.0;
  cfg.node_soft_mtbf = 4.0e4;
  cfg.node_hard_mtbf = 1.5e5;
  cfg.rack_mtbf = 3.0e5;
  cfg.switch_mtbf = 1.0e6;
  cfg.seed = 11;
  cfg.reference_engine = false;
  const ScaleResult cal = run_scale_cluster(cfg);
  cfg.reference_engine = true;
  const ScaleResult ref = run_scale_cluster(cfg);
  EXPECT_EQ(cal.wall, ref.wall);
  EXPECT_EQ(cal.efficiency, ref.efficiency);
  EXPECT_EQ(cal.iterations, ref.iterations);
  EXPECT_EQ(cal.lost_work, ref.lost_work);
  EXPECT_EQ(cal.remote_bytes, ref.remote_bytes);
  EXPECT_EQ(cal.nvm_bytes, ref.nvm_bytes);
  EXPECT_EQ(cal.soft_failures, ref.soft_failures);
  EXPECT_EQ(cal.hard_failures, ref.hard_failures);
  EXPECT_EQ(cal.rack_outages, ref.rack_outages);
  EXPECT_EQ(cal.events_fired, ref.events_fired);
  EXPECT_TRUE(cal.queue_drained);
  EXPECT_TRUE(ref.queue_drained);
}

TEST(SimDeterminism, ScaleClusterRepeatsForSameSeed) {
  ScaleConfig cfg;
  cfg.topo.nodes = 128;
  cfg.strategy = RemoteStrategy::kRSParity;
  cfg.total_compute = 60.0;
  cfg.node_hard_mtbf = 5.0e3;  // ~a few hard failures per run
  cfg.rack_mtbf = 1.0e4;
  cfg.seed = 5;
  const ScaleResult a = run_scale_cluster(cfg);
  const ScaleResult b = run_scale_cluster(cfg);
  EXPECT_GT(a.hard_failures + a.rack_outages, 0);
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.events_fired, b.events_fired);
  cfg.seed = 6;
  const ScaleResult c = run_scale_cluster(cfg);
  EXPECT_NE(a.wall, c.wall);
}

}  // namespace
}  // namespace nvmcp::sim
