// Concurrent bitmap over atomic 64-bit words. Used for the unflushed-page
// set of the emulated NVM device.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvmcp {

class AtomicBitmap {
 public:
  explicit AtomicBitmap(std::size_t bits = 0) { resize(bits); }

  AtomicBitmap(const AtomicBitmap&) = delete;
  AtomicBitmap& operator=(const AtomicBitmap&) = delete;

  void resize(std::size_t bits) {
    bits_ = bits;
    words_ = std::vector<std::atomic<std::uint64_t>>((bits + 63) / 64);
  }

  std::size_t size() const { return bits_; }

  void set(std::size_t i) {
    words_[i / 64].fetch_or(1ULL << (i % 64), std::memory_order_acq_rel);
  }

  void clear(std::size_t i) {
    words_[i / 64].fetch_and(~(1ULL << (i % 64)), std::memory_order_acq_rel);
  }

  bool test(std::size_t i) const {
    return words_[i / 64].load(std::memory_order_acquire) &
           (1ULL << (i % 64));
  }

  void set_range(std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) set(i);
  }

  void clear_range(std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) clear(i);
  }

  void clear_all() {
    for (auto& w : words_) w.store(0, std::memory_order_release);
  }

  /// Number of set bits in [first, first+count).
  std::size_t count_range(std::size_t first, std::size_t count) const {
    std::size_t n = 0;
    for (std::size_t i = first; i < first + count; ++i) n += test(i) ? 1 : 0;
    return n;
  }

  std::size_t count_all() const {
    std::size_t n = 0;
    for (const auto& w : words_) {
      n += static_cast<std::size_t>(
          __builtin_popcountll(w.load(std::memory_order_acquire)));
    }
    return n;
  }

  /// Invoke fn(i) for every set bit in [first, first+count).
  template <typename Fn>
  void for_each_set(std::size_t first, std::size_t count, Fn&& fn) const {
    for (std::size_t i = first; i < first + count && i < bits_; ++i) {
      if (test(i)) fn(i);
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace nvmcp
