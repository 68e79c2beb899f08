// Interconnect model: a shared link (InfiniBand-style fabric port) whose
// bandwidth is divided among concurrent flows, with a utilization timeline
// recorder used to reproduce the paper's Fig 10 (peak interconnect usage of
// remote checkpointing with and without pre-copy).
//
// Transfers are executed with the same sleep-based throttling as NVM
// writes, so a remote-checkpoint helper thread genuinely overlaps with
// compute. Application communication phases and checkpoint flows share the
// same limiter, which reproduces the contention the paper measures
// ("communication noise caused by interconnect contention between a
// communication intensive application and asynchronous checkpoint data
// movement").
//
// Application traffic has strict priority: a checkpoint-class block starts
// only while no application transfer is in flight. The priority is
// non-preemptive -- an application transfer waits for at most the one
// checkpoint block (ThrottledCopier::kBlockSize) already on the link --
// and the link stays work-conserving, so checkpoint traffic uses all the
// capacity the application leaves idle.
//
// Every transfer, remote puts and gets included, runs one block loop:
// priority wait, the block's move, degradation delay, byte accounting.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/clock.hpp"
#include "common/stats.hpp"
#include "nvm/throttle.hpp"

namespace nvmcp::fault {
class FaultInjector;
}

namespace nvmcp::net {

enum class TrafficClass { kApplication = 0, kCheckpoint = 1 };

struct LinkStats {
  std::uint64_t app_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  double app_seconds = 0;        // wall time spent in app transfers
  double checkpoint_seconds = 0;
};

/// Moves bytes [off, off + len) of a transfer, paced by the link's limiter
/// (a device write or read then moves at min(link bw, device bw)).
using BlockMover =
    std::function<void(std::size_t off, std::size_t len,
                       BandwidthLimiter& link)>;

/// One full-duplex-ish link with a single shared bandwidth pipe.
class Interconnect {
 public:
  /// 40 Gbps InfiniBand ~ 5 GB/s payload bandwidth (the paper's fabric).
  explicit Interconnect(double bandwidth_bytes_per_sec = 5.0e9,
                        double timeline_bucket_sec = 0.1);

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  /// Block until `bytes` have traversed the link (sharing bandwidth with
  /// concurrent callers; checkpoint-class blocks yield to application
  /// transfers). Each block of at most ThrottledCopier::kBlockSize is
  /// moved by `move` when given, else it only occupies the link. Records
  /// the transfer on the utilization timeline under its traffic class.
  /// Returns seconds spent.
  double transfer(std::size_t bytes, TrafficClass cls,
                  const BlockMover& move = nullptr);

  double bandwidth() const { return limiter_.rate(); }
  void set_bandwidth(double bytes_per_sec) { limiter_.set_rate(bytes_per_sec); }

  LinkStats stats() const;

  /// Seconds since the timelines' time base (construction or the last
  /// reset_accounting()): the time coordinate of the timeline buckets.
  double timeline_seconds() const;

  /// Checkpoint-traffic timeline: bytes per bucket of application time.
  const TimeSeries& checkpoint_timeline() const { return ckpt_timeline_; }
  const TimeSeries& app_timeline() const { return app_timeline_; }

  /// Peak checkpoint-class bytes observed in any single timeline bucket,
  /// expressed as a rate. This is the paper's "peak interconnect usage".
  double peak_checkpoint_rate() const;

  void reset_accounting();

  /// Attach a fault injector (chaos campaigns): transfers slow down by
  /// the injector's link-degradation factor while a degrade window is
  /// open. nullptr detaches.
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

 private:
  /// Block while any application transfer is in flight (the priority
  /// rule above); a checkpoint-class block waits here before it starts.
  void await_app_idle();
  void record(std::size_t bytes, TrafficClass cls);

  BandwidthLimiter limiter_;
  fault::FaultInjector* injector_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable app_idle_;  // signalled when app_inflight_ -> 0
  int app_inflight_ = 0;              // application transfers in flight
  LinkStats stats_;
  TimeSeries ckpt_timeline_;
  TimeSeries app_timeline_;
  Stopwatch epoch_;  // time base for the timelines
};

}  // namespace nvmcp::net
