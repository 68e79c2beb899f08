#include "tenant/admission.hpp"

#include <algorithm>
#include <chrono>

namespace nvmcp::tenant {

const char* to_string(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kQueue:
      return "queue";
    case AdmissionPolicy::kReject:
      return "reject";
  }
  return "?";
}

bool AdmissionController::is_next_locked(int priority,
                                         std::uint64_t seq) const {
  for (const Waiter& w : waiters_) {
    if (w.priority > priority) return false;
    if (w.priority == priority && w.seq < seq) return false;
  }
  return true;
}

AdmissionController::Outcome AdmissionController::admit(int priority) {
  Outcome out;
  std::unique_lock<std::mutex> lock(mu_);
  if (inflight_ < opts_.max_inflight && waiters_.empty()) {
    ++inflight_;
    out.admitted = true;
    return out;
  }
  if (opts_.policy == AdmissionPolicy::kReject) {
    ++rejections_;
    return out;
  }
  const std::uint64_t seq = next_seq_++;
  waiters_.push_back({priority, seq});
  ++waits_;
  const auto start = std::chrono::steady_clock::now();
  const bool ok = cv_.wait_for(
      lock, std::chrono::duration<double>(opts_.queue_timeout), [&] {
        return inflight_ < opts_.max_inflight && is_next_locked(priority, seq);
      });
  out.waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  wait_seconds_ += out.waited;
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (it->seq == seq) {
      waiters_.erase(it);
      break;
    }
  }
  if (ok) {
    ++inflight_;
    out.admitted = true;
    // The slot we took may not have been the only free one; let the next
    // best-ranked waiter re-check.
    cv_.notify_all();
  } else {
    ++rejections_;
    cv_.notify_all();  // our departure may unblock a worse-ranked waiter
  }
  return out;
}

void AdmissionController::release() {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ > 0) --inflight_;
  cv_.notify_all();
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

std::uint64_t AdmissionController::waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waits_;
}

std::uint64_t AdmissionController::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

double AdmissionController::wait_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wait_seconds_;
}

}  // namespace nvmcp::tenant
