#include "apps/workload_exec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/units.hpp"

namespace nvmcp::apps::detail {

std::size_t scaled_bytes(std::size_t nominal, double scale) {
  return std::max<std::size_t>(
      kNvmPageSize,
      round_up(static_cast<std::size_t>(
                   static_cast<double>(nominal) * scale),
               64));
}

void touch_chunk(alloc::Chunk& c, Rng& rng) {
  auto* p = static_cast<std::byte*>(c.data());
  const std::size_t n = c.size();
  for (std::size_t off = 0; off + 8 <= n; off += 256) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + off, &v, 8);
  }
  if (n >= 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + n - 8, &v, 8);
  }
}

std::size_t touch_small_random(alloc::Chunk& c, const ChunkSpec& spec,
                               Rng& rng, std::size_t* out_len) {
  const std::size_t n = c.size();
  const std::size_t wb =
      std::min<std::size_t>(std::max<std::size_t>(spec.write_bytes, 8), n);
  std::size_t span = n;
  if (spec.hot_fraction > 0 &&
      rng.next_double() < spec.hot_fraction) {
    span = std::max<std::size_t>(wb, n / 10);
  }
  const std::size_t off =
      span > wb ? rng.next_below(span - wb) & ~static_cast<std::size_t>(7) : 0;
  auto* p = static_cast<std::byte*>(c.data()) + off;
  for (std::size_t i = 0; i + 8 <= wb; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
  *out_len = wb;
  return off;
}

std::size_t touch_frontier(alloc::Chunk& c, const ChunkSpec& spec, int iter,
                           Rng& rng, std::size_t* out_len) {
  const std::size_t n = c.size();
  const double frac = frontier_fraction(iter, spec.burst_levels);
  std::size_t span = static_cast<std::size_t>(
      static_cast<double>(n) * frac);
  span = std::min(n, std::max<std::size_t>(64, round_up(span, 64)));
  const int level = iter % std::max(2, spec.burst_levels);
  std::size_t off = 0;
  if (n > span) {
    off = (static_cast<std::size_t>(level) * span) % (n - span);
    off &= ~static_cast<std::size_t>(7);
  }
  auto* p = static_cast<std::byte*>(c.data()) + off;
  for (std::size_t i = 0; i + 8 <= span; i += 256) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
  *out_len = span;
  return off;
}

std::size_t touch_grow_freeze(alloc::Chunk& c, const ChunkSpec& spec,
                              int iter, Rng& rng, std::size_t* out_len) {
  const std::size_t n = c.size();
  const int grow = std::max(1, spec.grow_iters);
  const int g = iter % std::max(1, spec.period);
  // Segment g of `grow` equal segments: map output appends into fresh
  // space, never rewriting earlier steps' emissions.
  const std::size_t seg = std::max<std::size_t>(64, n / static_cast<std::size_t>(grow));
  std::size_t off = std::min(static_cast<std::size_t>(g) * seg, n);
  off &= ~static_cast<std::size_t>(7);
  const std::size_t span = std::min(seg, n - off);
  auto* p = static_cast<std::byte*>(c.data()) + off;
  for (std::size_t i = 0; i + 8 <= span; i += 256) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(p + i, &v, 8);
  }
  *out_len = span;
  return off;
}

bool chunk_active(const ChunkSpec& spec, int iter) {
  switch (spec.pattern) {
    case ModPattern::kInitOnly:
      return iter == 0;
    case ModPattern::kEveryIteration:
    case ModPattern::kHotUntilEnd:
    case ModPattern::kSmallRandom:
    case ModPattern::kFrontierBurst:
      return true;
    case ModPattern::kPeriodic:
      return iter % std::max(1, spec.period) == 0;
    case ModPattern::kGrowThenFreeze:
      // Growing during the first grow_iters of each job cycle, frozen
      // (reducers reading, nothing dirtied) for the remainder.
      return iter % std::max(1, spec.period) <
             std::max(1, spec.grow_iters);
  }
  return false;
}

void append_touches(std::vector<Touch>& out, const ChunkSpec& spec,
                    alloc::Chunk* chunk, int iter) {
  if (!chunk_active(spec, iter)) return;
  const int mods = std::max(1, spec.pattern == ModPattern::kSmallRandom
                                   ? spec.writes_per_iter
                                   : spec.mods_per_iter);
  for (int m = 0; m < mods; ++m) {
    double frac;
    if (spec.pattern == ModPattern::kHotUntilEnd) {
      // Spread through the whole phase, last touch near the very end --
      // this is what defeats plain pre-copy (the chunk re-dirties after
      // every background copy).
      frac = 0.2 + 0.78 * (static_cast<double>(m) + 1.0) /
                       static_cast<double>(mods);
    } else if (spec.pattern == ModPattern::kSmallRandom) {
      // KV stores arrive all through the phase, no structure to exploit.
      frac = 0.9 * (static_cast<double>(m) + 1.0) /
             static_cast<double>(mods);
    } else if (spec.pattern == ModPattern::kFrontierBurst) {
      // BFS levels cluster mid-phase: the frontier expansion is one burst
      // of stores, not writes spread across the whole iteration.
      frac = 0.3 + 0.3 * (static_cast<double>(m) + 1.0) /
                       static_cast<double>(mods);
    } else {
      // Early in the phase, leaving the tail for pre-copy to exploit.
      // (Grow-then-freeze appends land here too: map emission is
      // front-loaded within an iteration.)
      frac = 0.05 + 0.45 * (static_cast<double>(m) + 1.0) /
                        static_cast<double>(mods);
    }
    out.push_back(Touch{std::min(frac, 0.99), chunk, &spec});
  }
}

void apply_touch(const Touch& t, int iter, Rng& rng,
                 vmem::TrackMode tmode) {
  switch (t.spec->pattern) {
    case ModPattern::kSmallRandom: {
      std::size_t len = 0;
      const std::size_t off = touch_small_random(*t.chunk, *t.spec, rng, &len);
      // Store-then-log: the range is logged only after the store above
      // landed (write-log mode); software mode reports the whole chunk,
      // mprotect modes already faulted.
      t.chunk->log_write(off, len);
      return;
    }
    case ModPattern::kFrontierBurst: {
      std::size_t len = 0;
      const std::size_t off =
          touch_frontier(*t.chunk, *t.spec, iter, rng, &len);
      t.chunk->log_write(off, len);
      return;
    }
    case ModPattern::kGrowThenFreeze: {
      std::size_t len = 0;
      const std::size_t off =
          touch_grow_freeze(*t.chunk, *t.spec, iter, rng, &len);
      // One contiguous appended segment = one logged range: sub-page
      // commits copy just the new emissions.
      t.chunk->log_write(off, len);
      return;
    }
    default: {
      touch_chunk(*t.chunk, rng);
      // In software tracking mode the application reports its own writes;
      // in mprotect mode the stores above already faulted. A whole-buffer
      // rewrite under write-log tracking notifies once (whole-chunk
      // dirty) instead of logging every stride.
      if (tmode == vmem::TrackMode::kSoftware ||
          tmode == vmem::TrackMode::kWriteLog) {
        t.chunk->notify_write();
      }
      return;
    }
  }
}

}  // namespace nvmcp::apps::detail
