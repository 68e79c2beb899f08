#include "net/interconnect.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "telemetry/trace.hpp"

namespace nvmcp::net {

Interconnect::Interconnect(double bandwidth_bytes_per_sec,
                           double timeline_bucket_sec)
    : limiter_(bandwidth_bytes_per_sec),
      ckpt_timeline_(timeline_bucket_sec),
      app_timeline_(timeline_bucket_sec) {}

double Interconnect::transfer(std::size_t bytes, TrafficClass cls,
                              const BlockMover& move) {
  const bool app = cls == TrafficClass::kApplication;
  if (app) {
    std::lock_guard<std::mutex> lock(mu_);
    ++app_inflight_;
  }
  telemetry::Span span(app ? "link_app_xfer" : "link_ckpt_xfer", "net");
  const Stopwatch sw;
  std::size_t off = 0;
  while (off < bytes) {
    const std::size_t len =
        std::min(ThrottledCopier::kBlockSize, bytes - off);
    if (!app) await_app_idle();
    if (move) {
      move(off, len, limiter_);
    } else {
      sleep_until(limiter_.acquire(len));
    }
    if (injector_ && injector_->armed()) {
      // Degradation window: the block takes factor times as long as the
      // link's nominal rate would allow.
      const double rate = limiter_.rate();
      const double extra = injector_->transfer_extra_delay(
          rate > 0 ? static_cast<double>(len) / rate : 0.0);
      if (extra > 0) precise_sleep(extra);
    }
    // Attribute each block to the bucket in which it finished, so a long
    // transfer shows up spread over the timeline instead of as one spike.
    record(len, cls);
    off += len;
  }
  const double secs = sw.elapsed();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (app) {
      stats_.app_seconds += secs;
      if (--app_inflight_ == 0) app_idle_.notify_all();
    } else {
      stats_.checkpoint_seconds += secs;
    }
  }
  return secs;
}

void Interconnect::await_app_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  app_idle_.wait(lock, [this] { return app_inflight_ == 0; });
}

void Interconnect::record(std::size_t bytes, TrafficClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  const double t = epoch_.elapsed();
  if (cls == TrafficClass::kApplication) {
    stats_.app_bytes += bytes;
    app_timeline_.add(t, static_cast<double>(bytes));
  } else {
    stats_.checkpoint_bytes += bytes;
    ckpt_timeline_.add(t, static_cast<double>(bytes));
  }
}

LinkStats Interconnect::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

double Interconnect::timeline_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_.elapsed();
}

double Interconnect::peak_checkpoint_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ckpt_timeline_.peak_rate();
}

void Interconnect::reset_accounting() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = LinkStats{};
  ckpt_timeline_ = TimeSeries(ckpt_timeline_.bucket_width());
  app_timeline_ = TimeSeries(app_timeline_.bucket_width());
  epoch_.reset();
}

}  // namespace nvmcp::net
