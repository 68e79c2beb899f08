#include "vmem/write_log.hpp"

#include <algorithm>
#include <utility>

namespace nvmcp::vmem {

void merge_dirty_ranges(std::vector<DirtyRange>& ranges,
                        std::uint64_t merge_gap) {
  if (ranges.size() < 2) return;
  std::sort(ranges.begin(), ranges.end(),
            [](const DirtyRange& a, const DirtyRange& b) {
              return a.off < b.off;
            });
  std::size_t w = 0;
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    DirtyRange& cur = ranges[w];
    if (ranges[i].off <= cur.end() + merge_gap) {
      cur.len = std::max(cur.end(), ranges[i].end()) - cur.off;
    } else {
      ranges[++w] = ranges[i];
    }
  }
  ranges.resize(w + 1);
}

std::uint64_t WriteLog::record(std::uint64_t off, std::uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ranges_.size() < kMaxRanges) {
    ranges_.push_back(DirtyRange{off, len});
    return 0;
  }
  // Full: fall back to whole-chunk dirtiness. Correct because every
  // discarded store already landed, so a whole-chunk copy includes it.
  const std::uint64_t discarded = ranges_.size() + 1;
  ranges_.clear();
  whole_ = true;
  return discarded;
}

void WriteLog::raise_whole() {
  std::lock_guard<std::mutex> lock(mu_);
  whole_ = true;
}

WriteLog::Collected WriteLog::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  Collected out;
  out.ranges.swap(ranges_);
  out.whole = std::exchange(whole_, false);
  return out;
}

}  // namespace nvmcp::vmem
