#include "core/remote.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "fault/injector.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::core {
namespace {

double env_double(const char* name, double fallback) {
  return env::get_double(name, fallback, -1e300, 1e300);
}

int env_int(const char* name, int fallback) {
  return static_cast<int>(env::get_i64(name, fallback, INT32_MIN, INT32_MAX));
}

template <typename T>
T clamp_field(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

RemoteRetryPolicy resolve_remote_retry(const RemoteConfig& cfg) {
  RemoteRetryPolicy p = cfg.retry;
  if (cfg.retry_from_env) {
    p.max_attempts = env_int("NVMCP_REMOTE_MAX_ATTEMPTS", p.max_attempts);
    p.phase2_attempts =
        env_int("NVMCP_REMOTE_PHASE2_ATTEMPTS", p.phase2_attempts);
    p.put_deadline = env_double("NVMCP_REMOTE_PUT_DEADLINE", p.put_deadline);
    p.backoff_base = env_double("NVMCP_REMOTE_BACKOFF_BASE", p.backoff_base);
    p.backoff_max = env_double("NVMCP_REMOTE_BACKOFF_MAX", p.backoff_max);
    p.jitter = env_double("NVMCP_REMOTE_JITTER", p.jitter);
    p.round_budget = env_double("NVMCP_REMOTE_ROUND_BUDGET", p.round_budget);
    p.isolate_failures =
        env_int("NVMCP_REMOTE_ISOLATE_FAILURES", p.isolate_failures);
    p.probation_puts =
        env_int("NVMCP_REMOTE_PROBATION_PUTS", p.probation_puts);
  }
  p.max_attempts = clamp_field(p.max_attempts, 1, 64);
  p.phase2_attempts = clamp_field(p.phase2_attempts, 1, 16);
  p.put_deadline = clamp_field(p.put_deadline, 1e-6, 3600.0);
  p.backoff_base = clamp_field(p.backoff_base, 0.0, 10.0);
  p.backoff_factor = clamp_field(p.backoff_factor, 1.0, 16.0);
  p.backoff_max = clamp_field(p.backoff_max, p.backoff_base, 60.0);
  p.jitter = clamp_field(p.jitter, 0.0, 1.0);
  p.round_budget = clamp_field(p.round_budget, 0.0, 3600.0);
  p.isolate_failures = clamp_field(p.isolate_failures, 1, 1 << 20);
  p.probation_puts = clamp_field(p.probation_puts, 1, 1 << 20);
  return p;
}

RemoteCheckpointer::RemoteCheckpointer(
    std::vector<CheckpointManager*> managers, net::RemoteMemory remote,
    RemoteConfig cfg)
    : managers_(std::move(managers)),
      remote_(remote),
      cfg_(cfg),
      retry_(resolve_remote_retry(cfg)) {
  round_start_ = now_seconds();
  m_.coordinations = &metrics_.counter("remote.coordinations");
  m_.bytes_sent = &metrics_.counter("remote.bytes_sent");
  m_.precopy_puts = &metrics_.counter("remote.precopy_puts");
  m_.coordinated_puts = &metrics_.counter("remote.coordinated_puts");
  m_.put_retries = &metrics_.counter("remote.put_retries");
  m_.put_failures = &metrics_.counter("remote.put_failures");
  m_.degraded_rounds = &metrics_.counter("remote.degraded_rounds");
  m_.isolations = &metrics_.counter("remote.health.isolations");
  m_.recoveries = &metrics_.counter("remote.health.recoveries");
  m_.busy_seconds = &metrics_.gauge("remote.busy_seconds");
  m_.wall_seconds = &metrics_.gauge("remote.wall_seconds");
  m_.last_round_seconds = &metrics_.gauge("remote.last_round_seconds");
  m_.stale_chunks = &metrics_.gauge("remote.stale_chunks");
  m_.codec_bytes_in = &metrics_.counter("codec.bytes_in");
  m_.codec_bytes_out = &metrics_.counter("codec.bytes_out");
  m_.codec_choice[0] = &metrics_.counter("codec.choice.raw");
  m_.codec_choice[1] = &metrics_.counter("codec.choice.lz");
  m_.codec_choice[2] = &metrics_.counter("codec.choice.delta");
  m_.codec_encode_seconds = &metrics_.gauge("codec.encode_seconds");
  m_.codec_ratio = &metrics_.gauge("codec.ratio");
  codec_mode_.reserve(managers_.size());
  for (CheckpointManager* m : managers_) {
    codec_mode_.push_back(resolve_codec_mode(m->config().codec_mode));
  }
  health_.resize(managers_.size());
  for (std::size_t i = 0; i < managers_.size(); ++i) {
    health_[i].gauge = &metrics_.gauge(
        "remote.health.rank" + std::to_string(managers_[i]->config().rank));
    health_[i].gauge->set(0);
  }
}

RemoteCheckpointer::~RemoteCheckpointer() {
  stop();
  release_base_pins();
}

void RemoteCheckpointer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  wall_.reset();
  {
    std::lock_guard<std::mutex> lock(round_mu_);
    round_start_ = now_seconds();
  }
  helper_ = std::thread([this] { helper_loop(); });
}

void RemoteCheckpointer::stop() {
  // The wall gauge must reflect the helper lifetime even if stop() races
  // with (or repeats after) another stop, so it is set unconditionally.
  if (running_.exchange(false)) cv_.notify_all();
  if (helper_.joinable()) helper_.join();
  m_.wall_seconds->set(wall_.elapsed());
}

bool RemoteCheckpointer::precopy_gate_open(double round_elapsed) const {
  switch (cfg_.policy) {
    case PrecopyPolicy::kNone:
      return false;  // everything moves in the coordination burst
    case PrecopyPolicy::kCpc:
      return true;
    case PrecopyPolicy::kDcpc:
    case PrecopyPolicy::kDcpcp:
      // Delay remote pre-copy into the later part of the interval
      // ("the delay time before a remote pre-copy is dependent on the
      // remote checkpoint interval").
      return round_elapsed >= cfg_.delay_fraction * cfg_.interval;
  }
  return false;
}

void RemoteCheckpointer::record_put_ok(std::size_t mgr_idx) {
  std::lock_guard<std::mutex> lock(health_mu_);
  HealthSlot& h = health_[mgr_idx];
  h.consecutive_failures = 0;
  if (h.state == RemoteHealth::kHealthy) return;
  if (++h.probation_successes >= retry_.probation_puts) {
    log_info("remote path for rank %u back to healthy after probation",
             managers_[mgr_idx]->config().rank);
    h.state = RemoteHealth::kHealthy;
    h.probation_successes = 0;
    h.gauge->set(0);
    m_.recoveries->add(1);
  }
}

void RemoteCheckpointer::record_put_failure(std::size_t mgr_idx) {
  std::lock_guard<std::mutex> lock(health_mu_);
  HealthSlot& h = health_[mgr_idx];
  h.probation_successes = 0;
  ++h.consecutive_failures;
  if (h.state == RemoteHealth::kHealthy) {
    h.state = RemoteHealth::kDegraded;
    h.gauge->set(1);
  }
  if (h.state == RemoteHealth::kDegraded &&
      h.consecutive_failures >= retry_.isolate_failures) {
    log_warn("remote path for rank %u isolated after %d consecutive "
             "failed sends",
             managers_[mgr_idx]->config().rank, h.consecutive_failures);
    h.state = RemoteHealth::kIsolated;
    h.gauge->set(2);
    m_.isolations->add(1);
  }
}

void RemoteCheckpointer::isolate_all_ranks() {
  std::lock_guard<std::mutex> lock(health_mu_);
  for (HealthSlot& h : health_) {
    h.probation_successes = 0;
    if (h.state != RemoteHealth::kIsolated) {
      h.state = RemoteHealth::kIsolated;
      h.gauge->set(2);
      m_.isolations->add(1);
    }
  }
}

RemoteHealth RemoteCheckpointer::health(std::size_t mgr_idx) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_[mgr_idx].state;
}

CoordinationOutcome RemoteCheckpointer::last_coordination() const {
  std::lock_guard<std::mutex> lock(round_mu_);
  return last_outcome_;
}

std::vector<StaleChunk> RemoteCheckpointer::stale() const {
  std::lock_guard<std::mutex> lock(round_mu_);
  return stale_;
}

void RemoteCheckpointer::force_raw_reship() {
  force_raw_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(round_mu_);
  // Forgetting what was sent makes the next round re-put everything; with
  // the raw latch up, every re-put is a self-contained raw frame.
  sent_epoch_.clear();
}

void RemoteCheckpointer::set_inflight_base(const Key& key, alloc::Chunk& c,
                                           std::uint64_t base_epoch) {
  auto& a = managers_[key.mgr]->allocator();
  std::lock_guard<std::mutex> lock(pin_mu_);
  auto it = inflight_base_.find(key);
  const std::uint64_t old = it != inflight_base_.end() ? it->second : 0;
  // Pins nest, so this is plain counting: the previous inflight pin is
  // released (even when old == base_epoch -- the caller's fresh pin
  // replaces it) and the caller's pin is recorded.
  if (old) a.unpin_epoch(c, old);
  if (base_epoch) {
    inflight_base_[key] = base_epoch;
  } else if (it != inflight_base_.end()) {
    inflight_base_.erase(it);
  }
}

void RemoteCheckpointer::promote_base_pin(const Key& key, alloc::Chunk& c) {
  auto& a = managers_[key.mgr]->allocator();
  std::lock_guard<std::mutex> lock(pin_mu_);
  auto cit = committed_base_.find(key);
  const std::uint64_t old = cit != committed_base_.end() ? cit->second : 0;
  auto iit = inflight_base_.find(key);
  if (iit != inflight_base_.end()) {
    committed_base_[key] = iit->second;  // pin transfers, no ring ops
    inflight_base_.erase(iit);
  } else if (cit != committed_base_.end()) {
    committed_base_.erase(cit);  // new committed frame references no base
  }
  if (old) a.unpin_epoch(c, old);
}

void RemoteCheckpointer::release_base_pins() {
  std::lock_guard<std::mutex> lock(pin_mu_);
  for (auto* pins : {&inflight_base_, &committed_base_}) {
    for (const auto& [key, epoch] : *pins) {
      if (!epoch) continue;
      alloc::Chunk* c = managers_[key.mgr]->allocator().find(key.chunk_id);
      if (c) managers_[key.mgr]->allocator().unpin_epoch(*c, epoch);
    }
    pins->clear();
  }
}

RemoteCheckpointer::SendResult RemoteCheckpointer::send_chunk(
    std::size_t mgr_idx, alloc::Chunk& c, bool count_as_precopy, bool paced,
    int max_attempts, double* backoff_budget) {
  CheckpointManager& mgr = *managers_[mgr_idx];
  const vmem::ChunkRecord& rec = c.record();
  if (!rec.has_committed()) return SendResult{SendStatus::kNothingCommitted};
  const std::uint64_t epoch = rec.epoch[rec.committed];

  // Serialize with the other send path (helper pre-copy vs. external
  // coordination): the staging buffer, the pace limiter and the jitter
  // stream are all single-helper state.
  std::lock_guard<std::mutex> send_lock(send_mu_);
  if (staging_.size() < c.size()) staging_.resize(c.size());
  // Read the stable committed payload from local NVM ("shared NVM
  // support"); a torn read is impossible because committed slots are only
  // replaced after the *next* commit flips away from them, and the commit
  // pass re-verifies epochs under the commit mutex.
  if (!mgr.allocator().read_committed(c, staging_.data())) {
    return SendResult{SendStatus::kLocalReadFailed};
  }

  // --- codec stage (fused into the send the way CRC fused into the copy
  // pass): pick a codec, encode once into the frame buffer; retries
  // re-ship the same frame bytes. kRaw mode ships a raw frame.
  const CodecMode mode = codec_mode_[mgr_idx];
  const std::size_t raw_n = c.size();
  auto want = compress::Codec::kRaw;
  std::uint64_t base_epoch = 0;  // nonzero => we hold a temp pin on it
  bool have_base = false;
  // Raw mode, a degraded/isolated path and an explicit raw re-ship
  // request all frame raw: a stale remote cut recovers fastest with
  // self-contained frames no delta base can invalidate.
  const bool raw_only = mode == CodecMode::kRaw ||
                        force_raw_.load(std::memory_order_acquire) ||
                        health(mgr_idx) != RemoteHealth::kHealthy;
  if (!raw_only) {
    // Delta base candidate: the newest retained epoch behind the one
    // being shipped. Pinned before the read and held (on success) until
    // the remote frame referencing it is itself superseded, so ring GC
    // can never reclaim a base a shipped frame still needs.
    auto& a = mgr.allocator();
    if (a.ring_depth() > 1) {
      for (std::uint64_t e : a.retained_epochs(c)) {
        if (e < epoch) {
          base_epoch = e;
          break;
        }
      }
    }
    if (base_epoch) {
      if (base_buf_.size() < raw_n) base_buf_.resize(raw_n);
      a.pin_epoch(c, base_epoch);
      if (a.read_retained(c, base_epoch, base_buf_.data())) {
        have_base = true;
      } else {
        a.unpin_epoch(c, base_epoch);
        base_epoch = 0;
      }
    }
    want = tuner_.choose(mode, c.entropy_hint(),
                         mgr.prediction().predicted(c.id()), raw_n,
                         have_base);
  }
  const Stopwatch enc_sw;
  const auto fr = encoder_.encode(want, staging_.data(), raw_n,
                                  have_base ? base_buf_.data() : nullptr,
                                  base_epoch);
  const double encode_s = enc_sw.elapsed();
  const auto used = fr.codec;
  const std::byte* wire = encoder_.frame();
  const std::size_t wire_n = fr.frame_size;
  if (used != compress::Codec::kDelta && base_epoch) {
    // The tuner passed on delta (or the encoder fell back to raw
    // framing): the candidate base is not referenced after all.
    mgr.allocator().unpin_epoch(c, base_epoch);
    base_epoch = 0;
  }
  m_.codec_bytes_in->add(raw_n);
  m_.codec_bytes_out->add(wire_n);
  m_.codec_choice[static_cast<int>(used)]->add(1);
  m_.codec_encode_seconds->add(encode_s);

  // Pace *before* the busy window: waiting for pace credit is idle time,
  // not helper work (Table V measures the helper core's utilization).
  // Charged at the *wire* size -- an encoded chunk earns back the link
  // time its compression saved.
  if (paced && !pace_.unlimited()) {
    sleep_until(pace_.acquire(wire_n));
  }

  SendResult res;
  const Stopwatch deadline_sw;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Retrying: the attempt count is the primary (deterministic) bound;
      // the deadline and the round's backoff budget cap wall time.
      if (deadline_sw.elapsed() >= retry_.put_deadline) break;
      if (backoff_budget && *backoff_budget <= 0) break;
      double pause = std::min(
          retry_.backoff_base * std::pow(retry_.backoff_factor, attempt - 1),
          retry_.backoff_max);
      // Jitter de-synchronizes ranks hammering a recovering link. Drawn
      // from a private stream so retries never perturb injector replay.
      pause *= 1.0 + retry_.jitter * retry_rng_.uniform(-1.0, 1.0);
      if (backoff_budget) {
        pause = std::min(pause, *backoff_budget);
        *backoff_budget -= pause;
      }
      if (pause > 0) precise_sleep(pause);
      m_.put_retries->add(1);
    }
    res.attempts = attempt + 1;
    if (injector_ && injector_->armed() && injector_->helper_send_blocked()) {
      res.status = SendStatus::kStalled;
      // A killed helper never comes back; a stall window might.
      if (injector_->helper_killed()) break;
      continue;
    }
    const Stopwatch sw;
    net::PutResult put;
    {
      telemetry::Span span(count_as_precopy ? "remote_precopy_put"
                                            : "remote_coordinated_put",
                           "ckpt.remote");
      put = remote_.put(mgr.config().rank, c.id(), wire, wire_n,
                        compress::max_frame_size(raw_n), epoch,
                        /*commit=*/false);
    }
    m_.busy_seconds->add(sw.elapsed());
    if (put.ok) {
      m_.bytes_sent->add(wire_n);
      tuner_.observe(used, raw_n, wire_n, encode_s, put.seconds);
      // The frame now sits in the remote in-progress slot: its base pin
      // (if delta) replaces whatever the previous inflight frame held.
      set_inflight_base(Key{mgr_idx, c.id()}, c,
                        used == compress::Codec::kDelta ? base_epoch : 0);
      if (count_as_precopy) {
        m_.precopy_puts->add(1);
      } else {
        m_.coordinated_puts->add(1);
      }
      res.status = SendStatus::kOk;
      res.epoch = epoch;
      record_put_ok(mgr_idx);
      return res;
    }
    res.status = SendStatus::kDropped;  // lost in transit; retry
  }
  // Exhausted the retry allowance: a real transport failure, visible to
  // the health machine and (via the caller) the round outcome. A delta
  // frame that never arrived references nothing; drop its temp base pin.
  if (used == compress::Codec::kDelta && base_epoch) {
    mgr.allocator().unpin_epoch(c, base_epoch);
  }
  m_.put_failures->add(1);
  record_put_failure(mgr_idx);
  return res;
}

void RemoteCheckpointer::helper_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(cv_mu_);
      cv_.wait_for(lock, std::chrono::duration<double>(cfg_.scan_period),
                   [this] { return !running_.load(std::memory_order_acquire); });
    }
    if (!running_.load(std::memory_order_acquire)) return;
    if (injector_ && injector_->armed() && injector_->helper_killed()) {
      log_warn("remote helper killed by fault injection");
      isolate_all_ranks();
      return;
    }

    // Derive the coordination deadline from round_start_ every iteration
    // (under round_mu_): an external coordinate_now() advances it, and the
    // helper must honour that instead of firing a second burst off a
    // stale cached deadline.
    double round_start;
    {
      std::lock_guard<std::mutex> lock(round_mu_);
      round_start = round_start_;
    }
    const double elapsed = now_seconds() - round_start;
    if (elapsed >= cfg_.interval) {
      coordinate_now();
      continue;
    }

    if (!precopy_gate_open(elapsed)) continue;

    // Eager pre-copy: ship chunks whose local committed epoch moved past
    // what the remote in-progress slot holds. Single attempt per chunk --
    // the scan loop itself is the retry mechanism here.
    for (std::size_t m = 0; m < managers_.size(); ++m) {
      if (!running_.load(std::memory_order_acquire)) return;
      for (alloc::Chunk* c : managers_[m]->allocator().chunks()) {
        if (!c->persistent()) continue;
        const vmem::ChunkRecord& rec = c->record();
        if (!rec.has_committed()) continue;
        const std::uint64_t local_epoch = rec.epoch[rec.committed];
        const Key key{m, c->id()};
        std::uint64_t last_sent = 0;
        {
          std::lock_guard<std::mutex> lock(round_mu_);
          auto it = sent_epoch_.find(key);
          if (it != sent_epoch_.end()) last_sent = it->second;
        }
        if (local_epoch <= last_sent) continue;
        const SendResult sent =
            send_chunk(m, *c, /*count_as_precopy=*/true, /*paced=*/true,
                       /*max_attempts=*/1, /*backoff_budget=*/nullptr);
        if (sent.ok()) {
          std::lock_guard<std::mutex> lock(round_mu_);
          sent_epoch_[key] = sent.epoch;
        }
      }
    }
  }
}

CoordinationOutcome RemoteCheckpointer::coordinate_now() {
  std::lock_guard<std::mutex> round_lock(round_mu_);
  CoordinationOutcome out;

  if (injector_ && injector_->armed() && injector_->helper_killed()) {
    // A dead helper coordinates nothing, but the caller still learns the
    // truth: every chunk whose remote commit lags the local cut is stale.
    isolate_all_ranks();
    stale_.clear();
    for (std::size_t m = 0; m < managers_.size(); ++m) {
      for (alloc::Chunk* c : managers_[m]->allocator().chunks()) {
        if (!c->persistent()) continue;
        const vmem::ChunkRecord& rec = c->record();
        if (!rec.has_committed()) continue;
        const std::uint64_t local_epoch = rec.epoch[rec.committed];
        const Key key{m, c->id()};
        auto it = remote_epoch_.find(key);
        const std::uint64_t have =
            it != remote_epoch_.end() ? it->second : 0;
        if (have != local_epoch) {
          stale_.push_back(StaleChunk{managers_[m]->config().rank, c->id(),
                                      local_epoch, have});
        }
      }
    }
    out.helper_dead = true;
    out.degraded = !stale_.empty();
    out.stale_chunks = static_cast<int>(stale_.size());
    m_.stale_chunks->set(static_cast<double>(stale_.size()));
    if (out.degraded) m_.degraded_rounds->add(1);
    last_outcome_ = out;
    return out;
  }

  telemetry::Span span("remote_coordinate", "ckpt.remote");
  const Stopwatch round_sw;
  double budget = retry_.round_budget;

  // Phase 1 (concurrent with the application): top up every chunk whose
  // remote in-progress payload is stale, retrying transport failures
  // under the full policy.
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    for (alloc::Chunk* c : managers_[m]->allocator().chunks()) {
      if (!c->persistent()) continue;
      const vmem::ChunkRecord& rec = c->record();
      if (!rec.has_committed()) continue;
      const Key key{m, c->id()};
      const std::uint64_t local_epoch = rec.epoch[rec.committed];
      auto it = sent_epoch_.find(key);
      if (it != sent_epoch_.end() && it->second == local_epoch) continue;
      // Pre-copy policies smooth even the coordination top-up (it is
      // asynchronous to the application); kNone bursts by definition.
      const SendResult sent =
          send_chunk(m, *c, /*count_as_precopy=*/false,
                     /*paced=*/cfg_.policy != PrecopyPolicy::kNone,
                     retry_.max_attempts, &budget);
      out.retries += std::max(0, sent.attempts - 1);
      if (sent.ok()) {
        sent_epoch_[key] = sent.epoch;
      } else if (sent.status == SendStatus::kStalled ||
                 sent.status == SendStatus::kDropped) {
        ++out.failed_sends;
      }
    }
  }

  // Phase 2 (brief): hold every manager's commit mutex so no local commit
  // interleaves; re-verify epochs (re-sending any chunk that committed
  // since phase 1, under the tighter phase-2 retry bound so the mutex
  // hold stays capped) and flip the remote commit pointers. Chunks whose
  // payload never arrived are recorded stale instead of committed -- the
  // remote cut stays consistent, just behind.
  stale_.clear();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(managers_.size());
  for (CheckpointManager* mgr : managers_) {
    locks.emplace_back(mgr->commit_mutex());
  }
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    CheckpointManager& mgr = *managers_[m];
    for (alloc::Chunk* c : mgr.allocator().chunks()) {
      if (!c->persistent()) continue;
      const vmem::ChunkRecord& rec = c->record();
      if (!rec.has_committed()) continue;
      const Key key{m, c->id()};
      const std::uint64_t local_epoch = rec.epoch[rec.committed];
      auto it = sent_epoch_.find(key);
      if (it == sent_epoch_.end() || it->second != local_epoch) {
        const SendResult sent =
            send_chunk(m, *c, /*count_as_precopy=*/false, /*paced=*/false,
                       retry_.phase2_attempts, &budget);
        out.retries += std::max(0, sent.attempts - 1);
        if (!sent.ok()) {
          if (sent.status == SendStatus::kStalled ||
              sent.status == SendStatus::kDropped) {
            ++out.failed_sends;
          }
          auto re = remote_epoch_.find(key);
          stale_.push_back(StaleChunk{
              mgr.config().rank, c->id(), local_epoch,
              re != remote_epoch_.end() ? re->second : 0});
          continue;  // never commit an epoch whose payload is not there
        }
        sent_epoch_[key] = sent.epoch;
      }
      auto re = remote_epoch_.find(key);
      const bool advanced =
          re == remote_epoch_.end() || re->second != local_epoch;
      remote_.commit(mgr.config().rank, c->id(), local_epoch);
      // Bookkeeping advances only after a delivered put + commit, so
      // remote_epoch_ exactly tracks the store's committed ground truth.
      remote_epoch_[key] = local_epoch;
      // The committed remote frame is now the one we last put: its delta
      // base pin (if any) moves from the inflight slot to the committed
      // slot, releasing the pin of the superseded committed frame.
      if (advanced) promote_base_pin(key, *c);
    }
  }
  locks.clear();

  out.degraded = !stale_.empty();
  out.stale_chunks = static_cast<int>(stale_.size());
  if (!out.degraded) {
    // A converged round means the raw re-ship (if one was requested)
    // completed: adaptive encoding may resume.
    force_raw_.store(false, std::memory_order_release);
  }
  m_.coordinations->add(1);
  m_.last_round_seconds->set(round_sw.elapsed());
  m_.stale_chunks->set(static_cast<double>(stale_.size()));
  const std::uint64_t codec_in = m_.codec_bytes_in->value();
  if (codec_in > 0) {
    m_.codec_ratio->set(static_cast<double>(m_.codec_bytes_out->value()) /
                        static_cast<double>(codec_in));
  }
  if (out.degraded) {
    m_.degraded_rounds->add(1);
    log_warn("remote coordination degraded: %d chunk(s) remote-stale, "
             "%d failed send(s), %d retr%s",
             out.stale_chunks, out.failed_sends, out.retries,
             out.retries == 1 ? "y" : "ies");
  }
  // Learning: pace the next interval's eager sends so that this round's
  // data volume spreads over ~80% of the interval instead of bursting.
  // (bytes_at_round_start_ is guarded by round_mu_, held here.)
  const std::uint64_t sent_total = m_.bytes_sent->value();
  const std::uint64_t round_bytes = sent_total - bytes_at_round_start_;
  bytes_at_round_start_ = sent_total;
  if (round_bytes > 0 && cfg_.interval > 0) {
    pace_.set_rate(static_cast<double>(round_bytes) /
                   (0.8 * cfg_.interval));
  }
  round_start_ = now_seconds();
  last_outcome_ = out;
  return out;
}

RemoteStats RemoteCheckpointer::stats() const {
  RemoteStats s;
  s.coordinations = m_.coordinations->value();
  s.bytes_sent = m_.bytes_sent->value();
  s.precopy_puts = m_.precopy_puts->value();
  s.coordinated_puts = m_.coordinated_puts->value();
  s.busy_seconds = m_.busy_seconds->value();
  s.last_round_seconds = m_.last_round_seconds->value();
  s.wall_seconds = wall_.elapsed();
  m_.wall_seconds->set(s.wall_seconds);
  return s;
}

RestoreStatus restore_with_remote(CheckpointManager& mgr,
                                  net::RemoteMemory& remote,
                                  RestartCoordinator::Options opts) {
  RestartCoordinator rc(mgr, &remote, std::move(opts));
  return rc.restart_after(FailureKind::kSoft).status;
}

}  // namespace nvmcp::core
