// Multi-tenant checkpoint arena: QoS isolation, quota enforcement and
// cross-tenant crash containment on one shared NVM device.
//
// The tenant arena partitions a device-global bandwidth cap by priority +
// weighted fair share (work-conserving), meters every tenant's ring-slot
// footprint against its capacity quota, and bounds concurrently
// running coordinated rounds with an admission controller. This bench
// measures what those mechanisms buy: a latency-sensitive tenant's commit
// throughput with and without a saturating bulk neighbour, quota
// adherence under ring pressure, and the A-crashes/B-commits/C-restores
// chaos trial.
//
// Output: console table + bench_multitenant.csv + a RunReport JSON.
//
// --smoke: CI gates.
//   1. qos:    with a saturating low-priority bulk tenant co-resident,
//              the high-priority tenant keeps >= 70% of its solo commit
//              throughput (the scheduler's 16:1 share should land ~94%).
//   2. quota:  no tenant's charged footprint ever exceeds its limit --
//              the bulk tenant's quota is below its ring's three-slot
//              footprint, so its ring must self-evict at the limit -- and
//              at depth 1 a commit that finds no ring slot within the
//              quota is refused while the neighbour commits untouched.
//   3. chaos:  tenant A hard-crashes mid-commit while B commits and C
//              streams a restore; B and C byte-verify, A recovers via the
//              restart walk with no undetected loss.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/fleet.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "fault/campaign.hpp"
#include "local_experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "tenant/arena.hpp"

namespace nvmcp::bench {
namespace {

constexpr int kChunks = 8;
constexpr std::size_t kChunkBytes = 2 * MiB;
constexpr double kSchedBw = 600.0 * MiB;
constexpr int kRingDepth = 2;

void refill(alloc::Chunk& c, std::uint64_t seed) {
  Rng rng(seed);
  auto* p = static_cast<std::byte*>(c.data());
  for (std::size_t i = 0; i + 8 <= c.size(); i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
  c.notify_write();
}

struct TenantCtx {
  tenant::TenantHandle* h = nullptr;
  std::vector<alloc::Chunk*> chunks;
};

TenantCtx make_tenant(tenant::TenantArena& arena, const std::string& name,
                      int priority, std::size_t quota_bytes) {
  tenant::TenantSpec ts;
  ts.name = name;
  ts.priority = priority;
  ts.quota_bytes = quota_bytes;
  ts.track_mode = vmem::TrackMode::kSoftware;
  ts.ckpt.local_policy = core::PrecopyPolicy::kNone;
  TenantCtx ctx;
  ctx.h = &arena.create_tenant(ts);
  for (int i = 0; i < kChunks; ++i) {
    ctx.chunks.push_back(ctx.h->nvalloc("buf" + std::to_string(i),
                                        kChunkBytes, /*persistent=*/true));
  }
  return ctx;
}

/// `rounds` rounds of (refill, QoS-managed checkpoint); returns committed
/// bytes per second of blocking time. Rejected rounds count as failures
/// via *admitted_out.
double run_rounds(TenantCtx& t, int rounds, std::uint64_t salt,
                  int* admitted_out) {
  double blocking = 0;
  int admitted = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < kChunks; ++i) {
      refill(*t.chunks[static_cast<std::size_t>(i)],
             salt + static_cast<std::uint64_t>(r) * kChunks +
                 static_cast<std::uint64_t>(i));
    }
    const tenant::TenantHandle::CommitResult res = t.h->checkpoint();
    if (res.admitted) {
      ++admitted;
      blocking += res.blocking;
    }
  }
  *admitted_out = admitted;
  if (blocking <= 0) return 0;
  return static_cast<double>(admitted) * kChunks * kChunkBytes / blocking;
}

/// Gate 2b (depth-1 arena): quota is charged per ring slot when a commit
/// acquires it. Two 1 MiB chunks under a 3 MiB quota hold two epochs each
/// only with four slots, so the second round must refuse the commit that
/// finds no slot within the quota (the "quota exhausted" throw from
/// VersionRing::acquire_for_commit) without the quota ever peaking past
/// its limit -- and the unmetered neighbour must allocate, commit and
/// read back untouched.
bool check_quota_refusal(std::string* detail) {
  tenant::TenantArena::Options aopts;
  aopts.device.capacity = 64 * MiB;
  aopts.device.throttle = false;
  aopts.ring_depth = 1;
  aopts.scheduler_bw = 0;
  tenant::TenantArena arena(aopts);

  tenant::TenantSpec ts;
  ts.name = "capped";
  ts.quota_bytes = 3 * (1 * MiB);
  ts.track_mode = vmem::TrackMode::kSoftware;
  ts.ckpt.local_policy = core::PrecopyPolicy::kNone;
  tenant::TenantHandle& capped = arena.create_tenant(ts);

  tenant::TenantSpec tn = ts;
  tn.name = "neighbour";
  tn.quota_bytes = 0;
  tenant::TenantHandle& neighbour = arena.create_tenant(tn);

  std::vector<alloc::Chunk*> cs;
  for (int i = 0; i < 2; ++i) {
    cs.push_back(capped.nvalloc("ok" + std::to_string(i), 1 * MiB, true));
  }
  std::string refusal;
  for (std::uint64_t round = 0; round < 2 && refusal.empty(); ++round) {
    for (std::size_t i = 0; i < cs.size(); ++i) refill(*cs[i], 10 * round + i);
    try {
      capped.checkpoint();
    } catch (const NvmcpError& e) {
      refusal = e.what();
    }
  }
  if (refusal.find("quota") == std::string::npos) {
    *detail = refusal.empty() ? "over-quota commit was not refused"
                              : "commit refused for another reason: " +
                                    refusal;
    return false;
  }
  if (capped.quota().peak() > capped.quota().limit()) {
    *detail = "quota peak exceeded its limit";
    return false;
  }
  // The neighbour's unmetered allocation and commit must be unaffected by
  // the capped tenant's exhaustion.
  alloc::Chunk* c = neighbour.nvalloc("big", 4 * MiB, true);
  refill(*c, 99);
  std::vector<std::byte> back(c->size());
  if (!neighbour.checkpoint().admitted ||
      !neighbour.allocator().read_committed(*c, back.data()) ||
      std::memcmp(back.data(), c->data(), back.size()) != 0) {
    *detail = "neighbour allocation or commit failed";
    return false;
  }
  return true;
}

int run(bool smoke) {
  telemetry::init_from_env();
  telemetry::RunReport report("bench_multitenant");
  report.config()["smoke"] = smoke;

  const std::string csv = smoke ? std::string{} : "bench_multitenant.csv";
  TableWriter table(
      "Multi-tenant arena: high-priority commit throughput vs bulk "
      "co-residency\n   (QoS scheduler share 16:1, admission budget 2)",
      {"phase", "throughput", "granted bw", "quota peak/limit"}, csv);

  // One arena for the QoS + quota-adherence phases: ring mode, both
  // tenants metered. The latency tenant's quota holds its ring footprint
  // (depth+1 slots) with headroom; the bulk tenant's, whose throughput is
  // not gated, holds only `depth` slots per chunk, so from its third round
  // on every commit must recycle its own oldest epoch at the limit.
  const std::size_t payload = kChunks * kChunkBytes;
  const std::size_t quota = payload * (kRingDepth + 2);
  const std::size_t bulk_quota = payload * kRingDepth;
  tenant::TenantArena::Options aopts;
  aopts.device.capacity =
      round_up(2 * quota + 32 * MiB, kNvmPageSize);
  aopts.device.throttle = false;
  aopts.ring_depth = kRingDepth;
  aopts.max_inflight = 2;
  aopts.scheduler_bw = kSchedBw;
  tenant::TenantArena arena(aopts);

  TenantCtx high = make_tenant(arena, "latency", /*priority=*/2, quota);

  const int rounds = smoke ? 10 : 24;
  int solo_admitted = 0;
  const double solo = run_rounds(high, rounds, 1, &solo_admitted);
  table.row({"latency solo", TableWriter::num(solo / MiB) + " MiB/s",
             TableWriter::num(high.h->granted_bw() / MiB) + " MiB/s",
             TableWriter::num(static_cast<double>(high.h->quota().peak()) /
                              MiB) +
                 "/" + TableWriter::num(static_cast<double>(quota) / MiB) +
                 " MiB"});

  // Saturating bulk neighbour: refill+commit as fast as admission lets it.
  TenantCtx bulk = make_tenant(arena, "bulk", /*priority=*/0, bulk_quota);
  std::atomic<bool> stop{false};
  std::atomic<int> bulk_commits{0};
  std::thread bulk_thr([&] {
    std::uint64_t salt = 0x8000;
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto* c : bulk.chunks) refill(*c, salt++);
      if (bulk.h->checkpoint().admitted) {
        bulk_commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Let the bulk tenant actually saturate before measuring.
  while (bulk_commits.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  int co_admitted = 0;
  const double co = run_rounds(high, rounds, 50'000, &co_admitted);
  stop.store(true);
  bulk_thr.join();
  // The bulk ring reaches its limit in round two and self-evicts from
  // round three: make sure it got that far before its peak is read.
  for (std::uint64_t salt = 0x9000; bulk_commits.load() < 3;) {
    for (auto* c : bulk.chunks) refill(*c, salt++);
    if (bulk.h->checkpoint().admitted) bulk_commits.fetch_add(1);
  }
  arena.refresh_metrics();

  table.row({"latency + bulk", TableWriter::num(co / MiB) + " MiB/s",
             TableWriter::num(high.h->granted_bw() / MiB) + " MiB/s",
             TableWriter::num(static_cast<double>(high.h->quota().peak()) /
                              MiB) +
                 "/" + TableWriter::num(static_cast<double>(quota) / MiB) +
                 " MiB"});
  table.row({"bulk (background)",
             std::to_string(bulk_commits.load()) + " commits",
             TableWriter::num(bulk.h->granted_bw() / MiB) + " MiB/s",
             TableWriter::num(static_cast<double>(bulk.h->quota().peak()) /
                              MiB) +
                 "/" + TableWriter::num(static_cast<double>(bulk_quota) / MiB) +
                 " MiB"});
  table.print();

  const double ratio = solo > 0 ? co / solo : 0;
  const bool qos_ok =
      ratio >= 0.7 && solo_admitted == rounds && co_admitted == rounds;
  std::printf(
      "  qos gate: co-resident throughput %.2fx of solo (need >= 0.70) "
      "%s\n",
      ratio, qos_ok ? "OK" : "FAIL");
  Json& qos = report.section("qos_gate");
  qos["solo_bytes_per_sec"] = solo;
  qos["coresident_bytes_per_sec"] = co;
  qos["ratio"] = ratio;
  qos["bulk_commits"] = static_cast<std::uint64_t>(bulk_commits.load());

  // Gate 2: quota adherence. peak <= limit must hold for every tenant
  // (ring pressure resolves by self-eviction, never overshoot; the bulk
  // tenant's three rounds put it under that pressure), and the directed
  // depth-1 over-quota commit must be refused.
  const bool adhered =
      high.h->quota().peak() <= high.h->quota().limit() &&
      bulk.h->quota().peak() <= bulk.h->quota().limit() &&
      high.h->quota().used() > 0;
  std::string qdetail;
  const bool refusal_ok = check_quota_refusal(&qdetail);
  const bool quota_ok = adhered && refusal_ok;
  std::printf("  quota gate: peak<=limit %s, over-quota commit refused "
              "%s%s\n",
              adhered ? "OK" : "FAIL", refusal_ok ? "OK" : "FAIL",
              refusal_ok ? "" : (" (" + qdetail + ")").c_str());
  Json& qg = report.section("quota_gate");
  qg["adhered"] = adhered;
  qg["refusal_ok"] = refusal_ok;
  qg["high_peak"] = static_cast<std::uint64_t>(high.h->quota().peak());
  qg["bulk_peak"] = static_cast<std::uint64_t>(bulk.h->quota().peak());

  // Gate 3: cross-tenant chaos (A crashes mid-commit, B commits, C
  // streams a restore -- all on one shared arena).
  fault::CrossTenantSpec cspec;
  cspec.seed = 0xfee1;
  cspec.ring_depth = 4;
  const fault::CrossTenantResult chaos =
      fault::CampaignRunner::run_cross_tenant(cspec);
  std::printf(
      "  chaos gate: B=%d mism, C=%d mism, A latest/stale/lost=%d/%d/%d "
      "%s%s\n",
      chaos.b_mismatches, chaos.c_mismatches, chaos.a_restored_latest,
      chaos.a_restored_stale, chaos.a_failed, chaos.ok ? "OK" : "FAIL: ",
      chaos.ok ? "" : chaos.detail.c_str());
  Json& cg = report.section("chaos_gate");
  cg["ok"] = chaos.ok;
  cg["detail"] = chaos.detail;
  cg["a_restored_latest"] = chaos.a_restored_latest;
  cg["a_restored_stale"] = chaos.a_restored_stale;

  // Non-smoke: the consolidated-node reference fleet (redis + graph500 +
  // GTC), each on its own checkpoint cadence through the shared arena.
  if (!smoke) {
    apps::FleetConfig fcfg = apps::FleetConfig::standard_fleet();
    fcfg.size_scale = 1.0 / 64;
    fcfg.time_scale = 1.0 / 256;
    for (auto& t : fcfg.tenants) t.iterations = 8;
    const apps::FleetResult fr = apps::run_fleet(fcfg);
    std::printf("\n== standard fleet (redis + graph500 + gtc, one arena) "
                "==\n");
    Json& fleet = report.section("fleet");
    for (const apps::FleetTenantResult& t : fr.tenants) {
      std::printf(
          "  %-10s commits %3llu (rej %llu)  blocking %7.2f ms  wait "
          "%6.2f ms  grant %6.1f MiB/s\n",
          t.name.c_str(), static_cast<unsigned long long>(t.commits),
          static_cast<unsigned long long>(t.rejected),
          t.blocking_sum * 1e3, t.admission_wait_sum * 1e3,
          t.granted_bw_last / MiB);
      Json row;
      row["name"] = t.name;
      row["commits"] = t.commits;
      row["rejected"] = t.rejected;
      row["blocking_seconds"] = t.blocking_sum;
      row["admission_wait_seconds"] = t.admission_wait_sum;
      row["granted_bw"] = t.granted_bw_last;
      fleet.push_back(std::move(row));
    }
    report.add_metrics(*fr.metrics);
  }

  if (!csv.empty()) {
    const std::string path = report_path_for(csv);
    if (report.write(path)) {
      std::printf("  run report: %s\n", path.c_str());
    }
  }
  telemetry::flush_trace();
  const bool ok = qos_ok && quota_ok && chaos.ok;
  std::printf("bench_multitenant: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nvmcp::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nvmcp::bench::run(smoke);
}
