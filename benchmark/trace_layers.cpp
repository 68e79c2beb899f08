// Turns a traced pass's spans into per-span totals and the per-layer
// metrics that are measured from spans (T metrics).
#include <algorithm>
#include <map>

#include "bench.hpp"

namespace nvmcp::bench {
namespace {

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct Frame {
  const telemetry::TraceEvent* event;
  std::uint64_t end_ns;
  std::uint64_t child_ns;
};

}  // namespace

TraceSummary summarize_trace(const std::vector<telemetry::TraceEvent>& events,
                             const Pass& pass) {
  std::map<std::string, Totals> totals;
  auto close = [&totals](const Frame& f) {
    Totals& t = totals[f.event->name];
    ++t.count;
    t.total_ns += f.event->dur_ns;
    t.self_ns += f.event->dur_ns - std::min(f.child_ns, f.event->dur_ns);
  };
  // Events arrive sorted by start (longer first on ties), so on each
  // thread the innermost open span that still covers an event's start is
  // its parent.
  std::map<std::uint32_t, std::vector<Frame>> open;
  for (const telemetry::TraceEvent& e : events) {
    if (!e.name || e.dur_ns == 0) continue;
    std::vector<Frame>& stack = open[e.tid];
    while (!stack.empty() && stack.back().end_ns <= e.ts_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    stack.push_back(Frame{&e, e.ts_ns + e.dur_ns, 0});
  }
  for (auto& [tid, stack] : open) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
  }

  TraceSummary out;
  for (const auto& [name, t] : totals) {
    Json& s = out.spans[name];
    s["count"] = t.count;
    s["total_ms"] = static_cast<double>(t.total_ns) / 1e6;
    s["self_ms"] = static_cast<double>(t.self_ns) / 1e6;
  }
  auto total_ms = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) / 1e6;
  };
  auto mean_ms = [&totals, &total_ms](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : total_ms(name) / static_cast<double>(it->second.count);
  };
  const double iters = pass.iterations;
  out.layers["vmem.touch_us_per_iter"] =
      iters > 0 ? total_ms("bench_touch") * 1e3 / iters : 0.0;
  out.layers["net.app_comm_ms_per_iter"] =
      iters > 0 ? total_ms("bench_app_comm") / iters : 0.0;
  out.layers["core.restart_attach_ms"] = mean_ms("bench_restart_attach");
  out.layers["core.restart_restore_ms"] = mean_ms("bench_restart_restore");
  out.layers["core.restart_fetch_ms"] = mean_ms("bench_restart_fetch");
  out.layers["sim.ms_per_run"] = mean_ms("bench_sim_run");
  return out;
}

}  // namespace nvmcp::bench
