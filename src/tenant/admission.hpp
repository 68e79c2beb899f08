// Arena admission control: bounds the number of concurrently running
// nvchkptall rounds across every tenant of a TenantArena.
//
// A checkpoint round is admitted when the arena-wide in-flight count is
// below the budget AND no better-ranked waiter is queued ahead of it
// (higher priority first, FIFO within a priority). Over-budget arrivals
// either queue with a timeout (kQueue) or fail fast (kReject), per the
// arena's admission policy. The budget keeps N tenants' coordinated
// steps from stampeding the device at once; the QoS scheduler then splits
// bandwidth among the rounds that were admitted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace nvmcp::tenant {

enum class AdmissionPolicy {
  kQueue,   // wait (up to queue_timeout seconds) for an in-flight slot
  kReject,  // fail the round immediately when over budget
};

const char* to_string(AdmissionPolicy p);

class AdmissionController {
 public:
  struct Options {
    int max_inflight = 2;
    AdmissionPolicy policy = AdmissionPolicy::kQueue;
    double queue_timeout = 5.0;  // seconds; kQueue only
  };

  struct Outcome {
    bool admitted = false;
    double waited = 0;  // seconds spent queued (0 on the fast path)
  };

  explicit AdmissionController(Options opts) : opts_(opts) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Try to admit one round at `priority`. On success the caller owns an
  /// in-flight slot and must release() it when the round ends (including
  /// on exception). Failure means the round was rejected (policy) or
  /// timed out in the queue — the caller skips the checkpoint.
  Outcome admit(int priority);
  void release();

  const Options& options() const { return opts_; }
  int inflight() const;
  /// Rounds that had to queue / that failed admission / total queue time.
  std::uint64_t waits() const;
  std::uint64_t rejections() const;
  double wait_seconds() const;

 private:
  struct Waiter {
    int priority;
    std::uint64_t seq;
  };
  bool is_next_locked(int priority, std::uint64_t seq) const;

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Waiter> waiters_;
  std::uint64_t waits_ = 0;
  std::uint64_t rejections_ = 0;
  double wait_seconds_ = 0;
};

}  // namespace nvmcp::tenant
