// Checks the benchmark's statistics and its result schema:
//   bench_stats_test path/to/BENCHMARK.json
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/error.hpp"

namespace {

using namespace nvmcp;
using namespace nvmcp::bench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const NvmcpError&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  CHECK(bench::median({3, 1, 2}) == 2);
  CHECK(bench::median({4, 1, 3, 2}) == 2.5);
  CHECK(std::isnan(bench::median({})));
}

void test_tail_rule() {
  // p90 once 100 samples exist: ten lie beyond it.
  const Tail t100 = tail(one_to(100));
  CHECK(t100.value == 90 && t100.percentile == 90 && t100.n == 100);
  const Tail t1000 = tail(one_to(1000));
  CHECK(t1000.value == 900 && t1000.percentile == 90);
  // Below 100 samples p90 is refused: the highest percentile with ten
  // samples beyond it is reported instead.
  const Tail t99 = tail(one_to(99));
  CHECK(t99.value == 89 && t99.percentile < 90);
  const Tail t24 = tail(one_to(24));
  CHECK(t24.value == 14);
  // Never fewer than ten samples beyond the reported value.
  for (int n = 11; n <= 300; ++n) {
    const Tail t = tail(one_to(n));
    CHECK(n - t.value >= 10);
    CHECK(t.percentile <= 90);
  }
  CHECK(std::isnan(tail(one_to(10)).value));
  CHECK(!std::isnan(tail(one_to(11)).value));
}

void test_floor_and_excess() {
  // 800 MiB on two 400 MiB/s streams takes one second.
  CHECK(floor_seconds(800.0 * 1048576, 2, 400.0 * 1048576) == 1.0);
  CHECK(throws([] { floor_seconds(1, 0, 1); }));
  CHECK(throws([] { floor_seconds(1, 1, 0); }));
  // Excess is taken per checkpoint, then the median.
  CHECK(median_excess({10, 12, 30}, {5, 5, 20}) == 7);
  CHECK(median_excess({10, 12}, {12, 10}) == 0);
  CHECK(throws([] { median_excess({1, 2}, {1}); }));
}

void test_efficiency_ideal() {
  CHECK(ideal_seconds(1.0, 2e8, 2e8) == 2.0);
  CHECK(ideal_seconds(3.0, 0, 0) == 3.0);
  CHECK(throws([] { ideal_seconds(1.0, 1.0, 0); }));
}

Values full_values(bool trace) {
  Values v;
  double x = 1.2345678901234567;
  for (const MetricDef& d : trace ? per_layer_metrics() : end_to_end_metrics()) {
    v[d.name] = x;
    x += 1;
  }
  return v;
}

void test_result_schema() {
  for (const bool trace : {false, true}) {
    const Values v = full_values(trace);
    const Json r = result_json(true, 12, 0, v, trace);
    CHECK(r.size() == 4);
    CHECK(r.find("correct") && r.find("correct")->boolean());
    CHECK(r.find("attempted") && r.find("attempted")->number() == 12);
    CHECK(r.find("failed") && r.find("failed")->number() == 0);
    const Json* m = r.find("metrics");
    CHECK(m && m->size() == v.size());
    for (const MetricDef& d :
         trace ? per_layer_metrics() : end_to_end_metrics()) {
      const Json* e = m ? m->find(d.name) : nullptr;
      CHECK(e && e->size() == 2);
      CHECK(e && e->find("unit") && e->find("unit")->str() == d.unit);
      CHECK(e && e->find("value") && e->find("value")->number() == v.at(d.name));
    }
    // The printed line keeps every digit.
    Json back;
    CHECK(Json::parse(r.dump(), &back) && back == r);

    Values missing = v;
    missing.erase(missing.begin());
    CHECK(throws([&] { result_json(true, 1, 0, missing, trace); }));
    Values extra = v;
    extra["not_a_metric"] = 1;
    CHECK(throws([&] { result_json(true, 1, 0, extra, trace); }));
    Values unmeasured = v;
    unmeasured.begin()->second = bench::median({});
    CHECK(throws([&] { result_json(true, 1, 0, unmeasured, trace); }));
  }
}

/// Problems found comparing a parsed BENCHMARK.json with the metric tables
/// and the workload names built into nvmcp_bench (empty when they agree).
std::vector<std::string> check_benchmark_json(
    const Json& doc, const std::vector<std::string>& workloads) {
  std::vector<std::string> problems;
  if (!doc.is_object()) return {"BENCHMARK.json is not an object"};

  const Json* wl = doc.find("workloads");
  std::set<std::string> listed;
  if (!wl || !wl->is_array()) {
    problems.push_back("workloads: missing array");
  } else {
    for (const Json& w : wl->items()) {
      const Json* name = w.find("name");
      if (name && name->is_string()) listed.insert(name->str());
    }
  }
  const std::set<std::string> built(workloads.begin(), workloads.end());
  if (listed != built) {
    problems.push_back("workloads: BENCHMARK.json names differ from the "
                       "benchmark's workloads");
  }

  for (const bool trace : {false, true}) {
    const char* key = trace ? "per_layer" : "end_to_end";
    const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
    const Json* list = doc.find(key);
    if (!list || !list->is_array()) {
      problems.push_back(std::string(key) + ": missing array");
      continue;
    }
    if (list->size() != defs.size()) {
      problems.push_back(std::string(key) + ": " +
                         std::to_string(list->size()) + " metrics listed, " +
                         std::to_string(defs.size()) + " reported");
    }
    for (const MetricDef& d : defs) {
      const Json* entry = nullptr;
      for (const Json& m : list->items()) {
        const Json* name = m.find("name");
        if (name && name->is_string() && name->str() == d.name) entry = &m;
      }
      if (!entry) {
        problems.push_back(std::string(key) + ": " + d.name + " not listed");
        continue;
      }
      const Json* unit = entry->find("unit");
      const Json* better = entry->find("better");
      if (!unit || !unit->is_string() || unit->str() != d.unit) {
        problems.push_back(std::string(d.name) + ": unit differs");
      }
      if (!better || !better->is_string() || better->str() != d.better) {
        problems.push_back(std::string(d.name) + ": direction differs");
      }
      const Json* bound = entry->find("bound");
      if (trace != (bound == nullptr) ||
          (bound && (!bound->is_number() || bound->number() != d.bound))) {
        problems.push_back(std::string(d.name) + ": bound differs");
      }
    }
  }
  return problems;
}

void test_benchmark_json(const char* path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  Json doc;
  std::string err;
  CHECK(Json::parse(ss.str(), &doc, &err));
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  const auto problems = check_benchmark_json(doc, names);
  for (const auto& p : problems) {
    std::fprintf(stderr, "stats_test: BENCHMARK.json: %s\n", p.c_str());
  }
  CHECK(problems.empty());

  // The check notices drift in either direction.
  Json dropped = doc;
  dropped["per_layer"].items().pop_back();
  CHECK(!check_benchmark_json(dropped, names).empty());
  Json renamed = doc;
  renamed["end_to_end"].items()[0]["unit"] = "s";
  CHECK(!check_benchmark_json(renamed, names).empty());
  names.push_back("extra_workload");
  CHECK(!check_benchmark_json(doc, names).empty());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_stats_test BENCHMARK.json\n");
    return 2;
  }
  test_median();
  test_tail_rule();
  test_floor_and_excess();
  test_efficiency_ideal();
  test_result_schema();
  test_benchmark_json(argv[1]);
  if (g_failures) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
