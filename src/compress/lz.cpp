#include "compress/lz.hpp"

#include <cstring>

#include "common/error.hpp"

namespace nvmcp::compress {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void write_runlen(std::uint8_t*& op, std::size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = static_cast<std::uint8_t>(len);
}

}  // namespace

// Both kernels start on a 64-byte boundary. Their hot loops are a few
// cache lines long, and where the linker happens to place them moves
// their speed: lz_compress at an address = 16 (mod 32) encoded a median
// 598 MB/s on gtc_remote, the same code 16 bytes later 761 MB/s (six
// traced passes each, 4-vCPU Xeon VM). Pinning the alignment keeps
// unrelated link-order changes from moving the codec's throughput.
[[gnu::aligned(64)]] std::size_t lz_compress(const void* src_v, std::size_t n,
                                             void* dst_v, std::size_t cap) {
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  const std::uint8_t* ip = src;
  const std::uint8_t* const iend = src + n;
  std::uint8_t* op = dst;
  std::uint8_t* const oend = dst + cap;

  std::uint32_t table[1u << kHashBits] = {};  // offsets+1 into src
  const std::uint8_t* anchor = ip;

  auto emit = [&](const std::uint8_t* lit_start, std::size_t lit_len,
                  std::size_t offset, std::size_t match_len) -> bool {
    const std::size_t worst =
        1 + lit_len / 255 + 1 + lit_len + 2 + match_len / 255 + 1;
    if (op + worst > oend) return false;
    const std::size_t ml_token =
        match_len ? match_len - kMinMatch : 0;
    *op++ = static_cast<std::uint8_t>(
        (lit_len >= 15 ? 15u : static_cast<unsigned>(lit_len)) << 4 |
        (match_len ? (ml_token >= 15 ? 15u
                                     : static_cast<unsigned>(ml_token))
                   : 0u));
    if (lit_len >= 15) write_runlen(op, lit_len - 15);
    // An empty run may start at a null source (empty input): skip the
    // copy rather than hand memcpy a null pointer.
    if (lit_len) std::memcpy(op, lit_start, lit_len);
    op += lit_len;
    if (match_len) {
      *op++ = static_cast<std::uint8_t>(offset & 0xff);
      *op++ = static_cast<std::uint8_t>(offset >> 8);
      if (ml_token >= 15) write_runlen(op, ml_token - 15);
    }
    return true;
  };

  if (n >= kMinMatch + 1) {
    const std::uint8_t* const match_limit = iend - kMinMatch;
    while (ip < match_limit) {
      const std::uint32_t h = hash4(load32(ip));
      const std::uint32_t cand_pos = table[h];
      table[h] = static_cast<std::uint32_t>(ip - src) + 1;
      if (cand_pos != 0) {
        const std::uint8_t* cand = src + cand_pos - 1;
        const std::size_t offset = static_cast<std::size_t>(ip - cand);
        if (offset <= kMaxOffset && load32(cand) == load32(ip)) {
          // Extend the match.
          const std::uint8_t* p = ip + kMinMatch;
          const std::uint8_t* q = cand + kMinMatch;
          while (p < iend && *p == *q) {
            ++p;
            ++q;
          }
          const std::size_t match_len = static_cast<std::size_t>(p - ip);
          if (!emit(anchor, static_cast<std::size_t>(ip - anchor), offset,
                    match_len)) {
            return 0;
          }
          ip += match_len;
          anchor = ip;
          continue;
        }
      }
      ++ip;
    }
  }
  // Trailing literals.
  if (!emit(anchor, static_cast<std::size_t>(iend - anchor), 0, 0)) {
    return 0;
  }
  return static_cast<std::size_t>(op - dst);
}

[[gnu::aligned(64)]] std::size_t lz_decompress(const void* src_v,
                                               std::size_t n, void* dst_v,
                                               std::size_t cap) {
  const auto* ip = static_cast<const std::uint8_t*>(src_v);
  const std::uint8_t* const iend = ip + n;
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  std::uint8_t* op = dst;
  std::uint8_t* const oend = dst + cap;

  // Every bound below compares remaining space (iend - ip / oend - op)
  // against the length instead of forming ip + len: a hostile run-length
  // can approach SIZE_MAX and pointer arithmetic past the buffer end is
  // both UB and wraparound-prone.
  auto read_runlen = [&](std::size_t base) -> std::size_t {
    std::size_t len = base;
    for (;;) {
      if (ip >= iend) throw NvmcpError("lz: truncated run length");
      const std::uint8_t b = *ip++;
      if (len > SIZE_MAX - b) throw NvmcpError("lz: run length overflow");
      len += b;
      if (b != 255) return len;
    }
  };

  while (ip < iend) {
    const std::uint8_t token = *ip++;
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len = read_runlen(15);
    if (lit_len > static_cast<std::size_t>(iend - ip)) {
      throw NvmcpError("lz: truncated literals");
    }
    if (lit_len > static_cast<std::size_t>(oend - op)) {
      throw NvmcpError("lz: output overflow");
    }
    std::memcpy(op, ip, lit_len);
    ip += lit_len;
    op += lit_len;
    if (ip >= iend) break;  // final sequence has no match part

    if (static_cast<std::size_t>(iend - ip) < 2) {
      throw NvmcpError("lz: truncated offset");
    }
    const std::size_t offset =
        static_cast<std::size_t>(ip[0]) |
        (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0) throw NvmcpError("lz: zero match offset");
    std::size_t match_len = token & 0x0f;
    if (match_len == 15) match_len = read_runlen(15);
    if (match_len > SIZE_MAX - kMinMatch) {
      throw NvmcpError("lz: run length overflow");
    }
    match_len += kMinMatch;
    if (static_cast<std::size_t>(op - dst) < offset) {
      throw NvmcpError("lz: match offset before output start");
    }
    if (match_len > static_cast<std::size_t>(oend - op)) {
      throw NvmcpError("lz: output overflow");
    }
    // Byte-wise copy: overlapping matches (offset < match_len) replicate.
    const std::uint8_t* from = op - offset;
    for (std::size_t i = 0; i < match_len; ++i) op[i] = from[i];
    op += match_len;
  }
  return static_cast<std::size_t>(op - dst);
}

}  // namespace nvmcp::compress
