// nvmcp_bench: the repository benchmark. Runs the workloads, prints every
// metric by name with its unit, checks every output byte for byte, and
// ends with one JSON result line.
//
//   nvmcp_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//               [--out DIR]
//
// Without --workload every workload runs, each in its own child process,
// so peak RSS and the process-wide protection manager stay per workload.
// A single-workload run ends with {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace the per-layer
// metrics of a traced pass. --out DIR also writes the result (plus, when
// traced, the Chrome trace and layers.json) into DIR. Exit status: 1 when
// an output check fails or a workload errors, 2 on bad arguments or when
// an NVMCP_* knob other than NVMCP_LOG is set in the environment.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "common/log.hpp"

extern char** environ;

namespace nvmcp::bench {
namespace {

constexpr int kSetups = 3;
constexpr std::size_t kTraceEventsPerThread = std::size_t{1} << 20;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nvmcp_bench: %s\n"
               "usage: nvmcp_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string_view name = value();
      for (const Workload& w : workloads()) {
        if (name == w.name) a.workload = &w;
      }
      if (!a.workload) usage("unknown workload");
    } else if (arg == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(value(), &end, 10);
      if (!end || *end) usage("bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value(), &end);
      if (!end || *end || !(a.seconds > 0) || a.seconds > 60) {
        usage("--seconds must be in (0, 60]");
      }
    } else if (arg == "--trace") {
      a.trace = true;
      if (i + 1 < argc && (!std::strcmp(argv[i + 1], "0") ||
                           !std::strcmp(argv[i + 1], "1"))) {
        a.trace = argv[++i][0] == '1';
      }
    } else if (arg == "--out") {
      a.out = value();
    } else {
      usage("unknown argument");
    }
  }
  return a;
}

/// CI and operators tune the library through NVMCP_* variables; any of
/// them would silently change the numbers, so the benchmark refuses them.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e; ++e) {
    const std::string_view kv = *e;
    if (kv.rfind("NVMCP_", 0) != 0) continue;
    const std::string_view name = kv.substr(0, kv.find('='));
    if (name == "NVMCP_LOG") continue;
    std::fprintf(stderr,
                 "nvmcp_bench: %.*s is set; unset every NVMCP_* knob but "
                 "NVMCP_LOG (the benchmark pins all knobs itself)\n",
                 static_cast<int>(name.size()), name.data());
    clean = false;
  }
  return clean;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  if (!f) throw NvmcpError("cannot write " + path);
}

int run_one(const Workload& w, const Args& a) {
  reset_run_clock();
  // At least 11 operations, so the latency tail is always defined.
  const auto ops = static_cast<std::size_t>(
      std::max(11.0, std::round(a.seconds / w.nominal_op_s)));
  Values values;
  Json detail = Json::object();
  Json samples = Json::array();  // latency samples, for the --out file
  Json layers_doc;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;

  if (!a.trace) {
    const Pass p = w.run(PassOptions{a.seed, ops, kSetups, false});
    const Tail t = tail(p.op_ms);
    values["latency_p50_ms"] = median(p.op_ms);
    values["latency_tail_ms"] = t.value;
    values["throughput"] = p.work_seconds > 0 ? p.work / p.work_seconds : 0;
    values["peak_rss_mib"] = peak_rss_mib();
    values["setup_s"] = median(p.setup_s);
    detail = p.detail;
    detail["latency_samples"] = t.n;
    detail["latency_tail_percentile"] = t.percentile;
    for (const double ms : p.op_ms) samples.push_back(ms);
    correct = p.correct;
    attempted = p.attempted;
    failed = p.failed;
  } else {
    // R metrics come from an untraced pass, T and probe metrics from a
    // traced pass over the same inputs; their latency ratio is the
    // tracing overhead.
    const std::size_t half = std::max<std::size_t>(1, ops / 2);
    Pass untraced = w.run(PassOptions{a.seed, half, 1, false});
    auto& tracer = telemetry::Tracer::instance();
    tracer.set_capacity(kTraceEventsPerThread);
    tracer.clear();
    tracer.set_enabled(true);
    Pass traced = w.run(PassOptions{a.seed, half, 1, true});
    tracer.set_enabled(false);
    const std::uint64_t dropped = tracer.dropped();
    traced.verify(dropped == 0, "trace ring dropped events");
    const TraceSummary summary = summarize_trace(tracer.snapshot(), traced);

    // A layer the workload does not run reports 0.
    for (const MetricDef& d : per_layer_metrics()) values[d.name] = 0;
    for (const Values* src : std::initializer_list<const Values*>{
             &untraced.layers, &traced.probes, &summary.layers}) {
      for (const auto& [name, v] : *src) values[name] = v;
    }
    values["telemetry.trace_overhead_frac"] =
        median(traced.op_ms) / median(untraced.op_ms) - 1;
    values["telemetry.dropped_events"] = static_cast<double>(dropped);
    detail = untraced.detail;
    correct = untraced.correct && traced.correct;
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    if (!a.out.empty()) {
      layers_doc["workload"] = w.name;
      layers_doc["seed"] = a.seed;
      layers_doc["spans"] = summary.spans;
      Json& m = layers_doc["metrics"];
      for (const auto& [name, v] : values) m[name] = v;
    }
  }

  const Json result = result_json(correct, attempted, failed, values, a.trace);
  std::printf("%s seed=%llu %s\n", w.name,
              static_cast<unsigned long long>(a.seed),
              a.trace ? "traced" : "untraced");
  const auto& defs = a.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    std::printf("  %-30s %14.6g %s\n", d.name, values.at(d.name), d.unit);
  }
  std::printf("  %-30s %14.6g (%llu of %llu)\n", "ops_failed_frac",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  detail %s\n", detail.dump().c_str());

  if (!a.out.empty()) {
    std::filesystem::create_directories(a.out);
    const std::string stem = a.out + "/" + w.name + ".seed" +
                             std::to_string(a.seed) +
                             (a.trace ? ".traced" : "");
    Json file = result;
    file["workload"] = w.name;
    file["seed"] = a.seed;
    file["trace"] = a.trace;
    file["detail"] = detail;
    file["latency_ms"] = samples;
    write_file(stem + ".json", file.dump(2));
    if (a.trace) {
      write_file(stem + ".layers.json", layers_doc.dump(2));
      if (!telemetry::Tracer::instance().write_chrome_trace(stem +
                                                           ".trace.json")) {
        throw NvmcpError("cannot write the Chrome trace");
      }
    }
  }
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_guarded(const Workload& w, const Args& a) {
  try {
    return run_one(w, a);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "nvmcp_bench: %s: %s\n", w.name, e.what());
    return 1;
  }
}

int run_all(const Args& a) {
  int worst = 0;
  for (const Workload& w : workloads()) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("nvmcp_bench: fork");
      return 2;
    }
    if (pid == 0) _exit(run_guarded(w, a));
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      std::perror("nvmcp_bench: waitpid");
      return 2;
    }
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (rc != 0) {
      std::fprintf(stderr, "nvmcp_bench: %s exited with %d\n", w.name, rc);
    }
    worst = std::max(worst, rc);
  }
  return worst;
}

}  // namespace
}  // namespace nvmcp::bench

int main(int argc, char** argv) {
  using namespace nvmcp::bench;
  const Args args = parse(argc, argv);
  if (!environment_clean()) return 2;
  nvmcp::init_log_from_env();
  return args.workload ? run_guarded(*args.workload, args) : run_all(args);
}
