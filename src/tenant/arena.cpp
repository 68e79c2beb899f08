#include "tenant/arena.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace nvmcp::tenant {

namespace {

double resolve_scheduler_bw(const TenantArena::Options& opts) {
  if (opts.scheduler_bw >= 0) return opts.scheduler_bw;
  // Partition what the emulated device can actually sink; an unthrottled
  // device has no cap worth partitioning.
  return opts.device.throttle ? opts.device.spec.write_bandwidth : 0.0;
}

}  // namespace

// --- TenantHandle ------------------------------------------------------

TenantHandle::TenantHandle(TenantArena& arena, TenantSpec spec,
                           vmem::CapacityQuota* quota, StreamGroup* group)
    : arena_(&arena),
      spec_(std::move(spec)),
      quota_(quota),
      group_(group) {
  alloc::ChunkAllocator::Options aopts;
  aopts.track_mode = spec_.track_mode;
  aopts.ring_depth = static_cast<int>(arena.ring_depth_);
  aopts.shared_dir = arena.dir_.get();
  aopts.quota = quota_;
  alloc_ = std::make_unique<alloc::ChunkAllocator>(arena.container_, aopts);
  mgr_ = std::make_unique<core::CheckpointManager>(*alloc_, spec_.ckpt);
  mgr_->set_shared_stream(group_->trunk());
  mgr_->start();

  const std::string p = "tenant." + spec_.name + ".";
  telemetry::MetricRegistry& reg = arena.metrics_;
  m_commits_ = &reg.counter(p + "commits");
  m_rejected_ = &reg.counter(p + "admission_rejected");
  m_waits_ = &reg.counter(p + "admission_waits");
  m_wait_seconds_ = &reg.gauge(p + "admission_wait_seconds");
  m_granted_bw_ = &reg.gauge(p + "granted_bw");
  m_quota_used_ = &reg.gauge(p + "quota_used_bytes");
  m_quota_limit_ = &reg.gauge(p + "quota_limit_bytes");
  m_quota_peak_ = &reg.gauge(p + "quota_peak_bytes");
  m_quota_rejections_ = &reg.gauge(p + "quota_rejections");
  m_commit_hist_ = &reg.histogram(p + "commit_seconds_hist", 0, 5.0, 5000);
  m_quota_limit_->set(static_cast<double>(quota_->limit()));
  m_granted_bw_->set(group_->granted());
}

std::uint64_t TenantHandle::chunk_id(std::string_view var) const {
  return alloc::genid(spec_.name + "/" + std::string(var));
}

alloc::Chunk* TenantHandle::nvalloc(std::string_view var, std::size_t size,
                                    bool persistent) {
  const std::string qualified = spec_.name + "/" + std::string(var);
  std::lock_guard<std::mutex> lock(arena_->alloc_mu_);
  return alloc_->nvalloc(alloc::genid(qualified), size, persistent,
                         qualified);
}

alloc::Chunk* TenantHandle::nvrealloc(std::string_view var,
                                      std::size_t new_size) {
  std::lock_guard<std::mutex> lock(arena_->alloc_mu_);
  return alloc_->nvrealloc(chunk_id(var), new_size);
}

void TenantHandle::nvdelete(std::string_view var) {
  std::lock_guard<std::mutex> lock(arena_->alloc_mu_);
  alloc_->nvdelete(chunk_id(var));
}

alloc::Chunk* TenantHandle::find(std::string_view var) {
  return alloc_->find(chunk_id(var));
}

TenantHandle::CommitResult TenantHandle::checkpoint() {
  CommitResult r;
  const AdmissionController::Outcome adm =
      arena_->admission_.admit(spec_.priority);
  r.admission_wait = adm.waited;
  if (adm.waited > 0) {
    m_waits_->add(1);
    m_wait_seconds_->add(adm.waited);
  }
  if (!adm.admitted) {
    m_rejected_->add(1);
    return r;
  }
  arena_->sched_.note_active(*group_);
  try {
    r.blocking = mgr_->nvchkptall();
  } catch (...) {
    arena_->sched_.note_idle(*group_);
    arena_->admission_.release();
    throw;
  }
  arena_->sched_.note_idle(*group_);
  arena_->admission_.release();
  r.admitted = true;
  m_commits_->add(1);
  m_commit_hist_->observe(r.blocking);

  // Trim the tenant's own ring tail when its quota runs hot. Scoped to
  // this quota, so the trim can never touch a neighbour's epochs.
  if (quota_->limit() != 0) {
    arena_->dir_->gc_pass(
        epoch::resolve_gc_watermark(spec_.ckpt.epoch_gc_watermark),
        epoch::resolve_gc_floor(spec_.ckpt.epoch_gc_floor), quota_);
  }

  m_granted_bw_->set(group_->granted());
  m_quota_used_->set(static_cast<double>(quota_->used()));
  m_quota_peak_->set(static_cast<double>(quota_->peak()));
  m_quota_rejections_->set(static_cast<double>(quota_->rejections()));
  return r;
}

// --- TenantArena -------------------------------------------------------

TenantArena::TenantArena(Options opts)
    : opts_(opts),
      dev_(opts.device),
      container_(dev_),
      ring_depth_(epoch::resolve_ring_depth(opts.ring_depth)),
      admission_(AdmissionController::Options{
          std::max(opts.max_inflight, 1), opts.admission,
          opts.queue_timeout}),
      sched_(BandwidthScheduler::Options{resolve_scheduler_bw(opts),
                                         opts.priority_boost}) {
  dir_ = std::make_unique<epoch::EpochDirectory>(
      container_, epoch::EpochDirectory::Options{ring_depth_});
  m_inflight_ = &metrics_.gauge("arena.inflight_rounds");
}

TenantArena::~TenantArena() = default;

std::unique_ptr<TenantHandle> TenantArena::build_tenant_locked(
    TenantSpec spec) {
  std::unique_ptr<vmem::CapacityQuota>& q = quotas_[spec.name];
  if (!q) {
    q = std::make_unique<vmem::CapacityQuota>(spec.quota_bytes, spec.name);
  }
  StreamGroup* g =
      sched_.register_tenant(spec.name, spec.weight, spec.priority);
  return std::unique_ptr<TenantHandle>(
      new TenantHandle(*this, std::move(spec), q.get(), g));
}

TenantHandle& TenantArena::create_tenant(TenantSpec spec) {
  if (spec.name.empty()) throw NvmcpError("tenant name must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tenants_) {
    if (t && t->name() == spec.name) {
      throw NvmcpError("tenant already exists: " + spec.name);
    }
  }
  tenants_.push_back(build_tenant_locked(std::move(spec)));
  return *tenants_.back();
}

TenantHandle* TenantArena::find(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : tenants_) {
    if (t && t->name() == name) return t.get();
  }
  return nullptr;
}

TenantHandle& TenantArena::reattach_tenant(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& t : tenants_) {
    if (!t || t->name() != name) continue;
    TenantSpec spec = t->spec_;
    // Tear down the old handle first: the manager stops, the allocator
    // releases its chunk views. Ring footprints in the shared directory
    // stay charged to the persistent quota, and the rebuilt allocator
    // re-adopts them without double-charging (VersionRing::set_quota
    // no-ops on reattach).
    t.reset();
    t = build_tenant_locked(std::move(spec));
    return *t;
  }
  throw NvmcpError("reattach_tenant: unknown tenant '" + std::string(name) +
                   "'");
}

void TenantArena::refresh_metrics() {
  std::lock_guard<std::mutex> lock(mu_);
  m_inflight_->set(admission_.inflight());
  for (const auto& t : tenants_) {
    if (!t) continue;
    t->m_granted_bw_->set(t->group_->granted());
    t->m_quota_used_->set(static_cast<double>(t->quota_->used()));
    t->m_quota_limit_->set(static_cast<double>(t->quota_->limit()));
    t->m_quota_peak_->set(static_cast<double>(t->quota_->peak()));
    t->m_quota_rejections_->set(
        static_cast<double>(t->quota_->rejections()));
  }
}

}  // namespace nvmcp::tenant
