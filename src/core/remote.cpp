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

RemoteCheckpointer::~RemoteCheckpointer() { stop(); }

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

RemoteCheckpointer::SendResult RemoteCheckpointer::send_chunk(
    std::size_t mgr_idx, const Committed& e, bool count_as_precopy,
    bool paced, int max_attempts, double* backoff_budget) {
  CheckpointManager& mgr = *managers_[mgr_idx];
  // Serialize with the other send path (helper pre-copy vs. external
  // coordination): the staging buffer, the pace limiter and the jitter
  // stream are all single-helper state.
  std::lock_guard<std::mutex> send_lock(send_mu_);

  // Read the acknowledged payload from local NVM ("shared NVM support")
  // and ship the epoch read with that slot. A commit copies into another
  // slot; a read overtaken by two commits fails its CRC, and the commit
  // pass re-verifies epochs under the commit mutex. The read is the only
  // touch of the chunk, so only it runs under with_live: a concurrent
  // nvalloc or nvdelete waits for the read, never for the pace wait or
  // the put.
  alloc::ChunkAllocator& a = mgr.allocator();
  SendStatus read = SendStatus::kNothingCommitted;
  std::size_t raw_n = 0;
  std::uint64_t epoch = 0;
  a.with_live({e.chunk}, [&](const std::vector<alloc::Chunk*>& live) {
    // A freed chunk's address may already hold another chunk.
    if (live.empty() || e.chunk->id() != e.id) return;
    if (!a.acknowledged(*e.chunk)) return;
    raw_n = e.chunk->size();
    if (staging_.size() < raw_n) staging_.resize(raw_n);
    read = a.read_committed(*e.chunk, staging_.data(), &epoch)
               ? SendStatus::kOk
               : SendStatus::kLocalReadFailed;
  });
  if (read != SendStatus::kOk) return SendResult{read};

  // --- codec stage (fused into the send the way CRC fused into the copy
  // pass): pick a codec, encode once into the frame buffer; retries
  // re-ship the same frame bytes. Every frame is raw or LZ and decodes on
  // its own, so the buddy's copy alone restores the chunk.
  const CodecMode mode = codec_mode_[mgr_idx];
  // Only the adaptive tuner reads the entropy probe; it samples the
  // committed payload just read, not live DRAM.
  const double entropy =
      mode == CodecMode::kAdaptive
          ? compress::entropy_probe(staging_.data(), raw_n)
          : 0.0;
  const Stopwatch enc_sw;
  const auto fr = encoder_.encode(tuner_.choose(mode, entropy, raw_n),
                                  staging_.data(), raw_n, nullptr, 0);
  const double encode_s = enc_sw.elapsed();
  const auto used = fr.codec;
  const std::byte* wire = encoder_.frame();
  const std::size_t wire_n = fr.frame_size;

  // Pace *before* the busy window: waiting for pace credit is idle time,
  // not helper work (Table V measures the helper core's utilization).
  // Charged at the *wire* size -- an encoded chunk earns back the link
  // time its compression saved. A waiting coordinate_now() ends the wait:
  // an eager send then steps aside without putting (its frame is stale
  // once the caller's round commits, and the round needs send_mu_), and a
  // timer round's send goes ahead unpaced.
  if (paced && !pace_wait(wire_n) && count_as_precopy) {
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
      put = remote_.put(mgr.config().rank, e.id, wire, wire_n,
                        compress::max_frame_size(raw_n), epoch,
                        /*commit=*/false);
    }
    m_.busy_seconds->add(sw.elapsed());
    if (put.ok) {
      m_.bytes_sent->add(wire_n);
      tuner_.observe(used, raw_n, wire_n, encode_s, put.seconds);
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
  // the health machine and (via the caller) the round outcome.
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
        const SendResult sent =
            send_chunk(m, e, /*count_as_precopy=*/true, /*paced=*/true,
                       /*max_attempts=*/1, /*backoff_budget=*/nullptr);
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
      const SendResult sent = send_chunk(
          m, e, /*count_as_precopy=*/false,
          /*paced=*/!requested && cfg_.policy != PrecopyPolicy::kNone,
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
  const Stopwatch hold_sw;
  int resends = 0;  // chunks re-put under the commit mutexes
  // The commit mutexes hold every acknowledged epoch still, so the scan's
  // epochs are the cut. The remote commit touches no chunk; only a
  // resend reads one.
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    const std::uint32_t rank = managers_[m]->config().rank;
    for (const Committed& e : committed_chunks(m)) {
      const Key key{m, e.id};
      auto it = sent_epoch_.find(key);
      if (it == sent_epoch_.end() || it->second != e.epoch) {
        const SendResult sent =
            send_chunk(m, e, /*count_as_precopy=*/false, /*paced=*/false,
                       retry_.phase2_attempts, &budget);
        if (sent.status == SendStatus::kNothingCommitted) continue;
        ++resends;
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
          continue;  // never commit an epoch whose payload is not there
        }
        sent_epoch_[key] = sent.epoch;
      }
      remote_.commit(rank, e.id, e.epoch);
      // Bookkeeping advances only after a delivered put + commit, so
      // remote_epoch_ exactly tracks the store's committed ground truth.
      remote_epoch_[key] = e.epoch;
    }
  }
  locks.clear();
  m_.phase2_hold_seconds->observe(hold_sw.elapsed());
  m_.phase2_resends->add(static_cast<std::uint64_t>(resends));

  out.degraded = !stale_.empty();
  out.stale_chunks = static_cast<int>(stale_.size());
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
