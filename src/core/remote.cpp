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
  m_.deferred_sends = &metrics_.counter("remote.deferred_sends");
  m_.phase2_resends = &metrics_.counter("remote.phase2_resends");
  m_.phase2_hold_seconds =
      &metrics_.histogram("remote.phase2_hold_seconds", 0.0, 1.0, 1000);
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
  // running_ flips under cv_mu_ so a pace wait cannot miss the wake-up.
  bool was_running;
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    was_running = running_.exchange(false);
  }
  if (was_running) cv_.notify_all();
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
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    alloc::ChunkAllocator& a = managers_[m]->allocator();
    a.with_live(a.chunks(), [&](const std::vector<alloc::Chunk*>& live) {
      std::lock_guard<std::mutex> lock(pin_mu_);
      for (alloc::Chunk* c : live) {
        for (auto* pins : {&inflight_base_, &committed_base_}) {
          auto it = pins->find(Key{m, c->id()});
          if (it != pins->end()) a.unpin_epoch(*c, it->second);
        }
      }
    });
  }
  std::lock_guard<std::mutex> lock(pin_mu_);
  inflight_base_.clear();
  committed_base_.clear();
}

std::vector<RemoteCheckpointer::Committed>
RemoteCheckpointer::committed_chunks(std::size_t m) const {
  const alloc::ChunkAllocator& a = managers_[m]->allocator();
  std::vector<Committed> out;
  a.with_live(a.chunks(), [&](const std::vector<alloc::Chunk*>& live) {
    for (alloc::Chunk* c : live) {
      if (!c->persistent()) continue;
      if (const auto acked = a.acknowledged(*c)) {
        out.push_back(Committed{c, c->id(), acked->epoch});
      }
    }
  });
  return out;
}

bool RemoteCheckpointer::with_chunk(std::size_t m, const Committed& e,
                                    const std::function<void()>& fn) const {
  bool live = false;
  managers_[m]->allocator().with_live(
      {e.chunk}, [&](const std::vector<alloc::Chunk*>& l) {
        // A freed chunk's address may already hold another chunk.
        live = !l.empty() && e.chunk->id() == e.id;
        if (live) fn();
      });
  return live;
}

RemoteCheckpointer::SendResult RemoteCheckpointer::send_chunk(
    std::size_t mgr_idx, alloc::Chunk& c, bool count_as_precopy, bool paced,
    int max_attempts, double* backoff_budget) {
  CheckpointManager& mgr = *managers_[mgr_idx];
  if (!mgr.allocator().acknowledged(c)) {
    return SendResult{SendStatus::kNothingCommitted};
  }

  // Serialize with the other send path (helper pre-copy vs. external
  // coordination): the staging buffer, the pace limiter and the jitter
  // stream are all single-helper state.
  std::lock_guard<std::mutex> send_lock(send_mu_);
  if (staging_.size() < c.size()) staging_.resize(c.size());
  // Read the acknowledged payload from local NVM ("shared NVM support")
  // and ship the epoch read with that slot. A commit copies into another
  // slot; a read overtaken by two commits fails its CRC, and the commit
  // pass re-verifies epochs under the commit mutex.
  std::uint64_t epoch = 0;
  if (!mgr.allocator().read_committed(c, staging_.data(), &epoch)) {
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
    // Only the adaptive tuner reads the entropy probe; it samples the
    // committed payload just read, not live DRAM.
    const double entropy =
        mode == CodecMode::kAdaptive
            ? compress::entropy_probe(staging_.data(), raw_n)
            : 0.0;
    want = tuner_.choose(mode, entropy, mgr.prediction().predicted(c.id()),
                         raw_n, have_base);
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

  // Pace *before* the busy window: waiting for pace credit is idle time,
  // not helper work (Table V measures the helper core's utilization).
  // Charged at the *wire* size -- an encoded chunk earns back the link
  // time its compression saved. A waiting coordinate_now() ends the wait:
  // an eager send then steps aside without putting (its frame is stale
  // once the caller's round commits, and the round needs send_mu_), and a
  // timer round's send goes ahead unpaced.
  if (paced && !pace_wait(wire_n) && count_as_precopy) {
    if (base_epoch) mgr.allocator().unpin_epoch(c, base_epoch);
    m_.deferred_sends->add(1);
    return SendResult{SendStatus::kDeferred};
  }
  m_.codec_bytes_in->add(raw_n);
  m_.codec_bytes_out->add(wire_n);
  m_.codec_choice[static_cast<int>(used)]->add(1);
  m_.codec_encode_seconds->add(encode_s);

  SendResult res;
  const Stopwatch deadline_sw;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Retrying: the attempt count is the primary (deterministic) bound;
      // the deadline and the round's backoff budget cap wall time. The
      // deadline only gates re-attempts: a put that is slow because it
      // yields the link to application traffic has not failed.
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

bool RemoteCheckpointer::pace_wait(std::size_t bytes) {
  if (pace_.unlimited()) return true;
  const auto cut_short = [this] {
    return waiters_ > 0 || !running_.load(std::memory_order_acquire);
  };
  std::unique_lock<std::mutex> lock(cv_mu_);
  if (cut_short()) return false;  // reserve no credit that nobody waits out
  return !cv_.wait_until(lock, pace_.acquire(bytes), cut_short);
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
      coordinate(/*requested=*/false);
      continue;
    }

    if (!precopy_gate_open(elapsed)) continue;

    // Eager pre-copy: ship chunks whose local committed epoch moved past
    // what the remote in-progress slot holds. Single attempt per chunk --
    // the scan loop itself is the retry mechanism here. A deferred send
    // means a caller waits on a round: the scan resumes next period.
    bool deferred = false;
    for (std::size_t m = 0; m < managers_.size() && !deferred; ++m) {
      if (!running_.load(std::memory_order_acquire)) return;
      for (const Committed& e : committed_chunks(m)) {
        const Key key{m, e.id};
        std::uint64_t last_sent = 0;
        {
          std::lock_guard<std::mutex> lock(round_mu_);
          auto it = sent_epoch_.find(key);
          if (it != sent_epoch_.end()) last_sent = it->second;
        }
        if (e.epoch <= last_sent) continue;
        SendResult sent;
        if (!with_chunk(m, e, [&] {
              sent = send_chunk(m, *e.chunk, /*count_as_precopy=*/true,
                                /*paced=*/true, /*max_attempts=*/1,
                                /*backoff_budget=*/nullptr);
            })) {
          continue;  // nvdeleted since the scan
        }
        if (sent.status == SendStatus::kDeferred) {
          deferred = true;
          break;
        }
        if (sent.ok()) {
          std::lock_guard<std::mutex> lock(round_mu_);
          sent_epoch_[key] = sent.epoch;
        }
      }
    }
  }
}

CoordinationOutcome RemoteCheckpointer::coordinate_now() {
  // Announce the caller before queueing on round_mu_, so every pace wait
  // in flight ends now rather than after its credit.
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    ++waiters_;
  }
  cv_.notify_all();
  struct Leave {
    RemoteCheckpointer* self;
    ~Leave() {
      std::lock_guard<std::mutex> lock(self->cv_mu_);
      --self->waiters_;
    }
  } leave{this};
  return coordinate(/*requested=*/true);
}

CoordinationOutcome RemoteCheckpointer::coordinate(bool requested) {
  std::lock_guard<std::mutex> round_lock(round_mu_);
  CoordinationOutcome out;

  if (injector_ && injector_->armed() && injector_->helper_killed()) {
    // A dead helper coordinates nothing, but the caller still learns the
    // truth: every chunk whose remote commit lags the local cut is stale.
    isolate_all_ranks();
    stale_.clear();
    for (std::size_t m = 0; m < managers_.size(); ++m) {
      for (const Committed& e : committed_chunks(m)) {
        auto it = remote_epoch_.find(Key{m, e.id});
        const std::uint64_t have =
            it != remote_epoch_.end() ? it->second : 0;
        if (have != e.epoch) {
          stale_.push_back(StaleChunk{managers_[m]->config().rank, e.id,
                                      e.epoch, have});
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
    for (const Committed& e : committed_chunks(m)) {
      const Key key{m, e.id};
      auto it = sent_epoch_.find(key);
      if (it != sent_epoch_.end() && it->second == e.epoch) continue;
      // A timer round under a pre-copy policy smooths its top-up (no one
      // waits on it); a requested round ships at link speed, and kNone
      // bursts by definition.
      SendResult sent;
      if (!with_chunk(m, e, [&] {
            sent = send_chunk(
                m, *e.chunk, /*count_as_precopy=*/false,
                /*paced=*/!requested && cfg_.policy != PrecopyPolicy::kNone,
                retry_.max_attempts, &budget);
          })) {
        continue;  // nvdeleted since the scan
      }
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
  const Stopwatch hold_sw;
  int resends = 0;  // chunks re-put under the commit mutexes
  // The commit mutexes hold every acknowledged epoch still, so the scan's
  // epochs are the cut; each chunk's work runs under with_chunk.
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    const std::uint32_t rank = managers_[m]->config().rank;
    for (const Committed& e : committed_chunks(m)) {
      const Key key{m, e.id};
      with_chunk(m, e, [&] {
        auto it = sent_epoch_.find(key);
        if (it == sent_epoch_.end() || it->second != e.epoch) {
          ++resends;
          const SendResult sent =
              send_chunk(m, *e.chunk, /*count_as_precopy=*/false,
                         /*paced=*/false, retry_.phase2_attempts, &budget);
          out.retries += std::max(0, sent.attempts - 1);
          if (!sent.ok()) {
            if (sent.status == SendStatus::kStalled ||
                sent.status == SendStatus::kDropped) {
              ++out.failed_sends;
            }
            auto re = remote_epoch_.find(key);
            stale_.push_back(StaleChunk{
                rank, e.id, e.epoch,
                re != remote_epoch_.end() ? re->second : 0});
            return;  // never commit an epoch whose payload is not there
          }
          sent_epoch_[key] = sent.epoch;
        }
        auto re = remote_epoch_.find(key);
        const bool advanced =
            re == remote_epoch_.end() || re->second != e.epoch;
        remote_.commit(rank, e.id, e.epoch);
        // Bookkeeping advances only after a delivered put + commit, so
        // remote_epoch_ exactly tracks the store's committed ground truth.
        remote_epoch_[key] = e.epoch;
        // The committed remote frame is now the one we last put: its
        // delta base pin (if any) moves from the inflight slot to the
        // committed slot, releasing the pin of the superseded committed
        // frame.
        if (advanced) promote_base_pin(key, *e.chunk);
      });
    }
  }
  locks.clear();
  m_.phase2_hold_seconds->observe(hold_sw.elapsed());
  m_.phase2_resends->add(static_cast<std::uint64_t>(resends));

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

}  // namespace nvmcp::core
