#include "common/checksum.hpp"

#include <array>
#include <cstring>

#include "common/checksum_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nvmcp {
namespace crc64_kernels {
namespace {

constexpr std::uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;  // ECMA-182

// Slice-by-16 tables: table[0] is the classic byte table; table[k] rolls a
// byte through k additional zero bytes, letting the loop fold 16 input
// bytes per iteration. Built at compile time, so no call -- including the
// first one, possibly from the lazy-restore SIGSEGV handler -- runs an
// initialisation guard.
using SliceTables = std::array<std::array<std::uint64_t, 256>, 16>;

constexpr SliceTables build_tables() {
  SliceTables t{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i << 56;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & (1ULL << 63)) ? (crc << 1) ^ kPoly : crc << 1;
    }
    t[0][static_cast<std::size_t>(i)] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t prev = t[k - 1][i];
      t[k][i] = (prev << 8) ^ t[0][static_cast<std::size_t>(prev >> 56)];
    }
  }
  return t;
}

constexpr SliceTables kTables = build_tables();

}  // namespace

std::uint64_t update_table(std::uint64_t state, const void* data,
                           std::size_t n) {
  const SliceTables& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);

  while (n >= 16) {
    std::uint64_t w0, w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    // First word folds through the state (its bytes roll through 15..8
    // further input bytes); second word's bytes roll through 7..0.
    const std::uint64_t x = state ^ __builtin_bswap64(w0);
    const std::uint64_t y = __builtin_bswap64(w1);
    state = t[15][(x >> 56) & 0xff] ^ t[14][(x >> 48) & 0xff] ^
            t[13][(x >> 40) & 0xff] ^ t[12][(x >> 32) & 0xff] ^
            t[11][(x >> 24) & 0xff] ^ t[10][(x >> 16) & 0xff] ^
            t[9][(x >> 8) & 0xff] ^ t[8][x & 0xff] ^
            t[7][(y >> 56) & 0xff] ^ t[6][(y >> 48) & 0xff] ^
            t[5][(y >> 40) & 0xff] ^ t[4][(y >> 32) & 0xff] ^
            t[3][(y >> 24) & 0xff] ^ t[2][(y >> 16) & 0xff] ^
            t[1][(y >> 8) & 0xff] ^ t[0][y & 0xff];
    p += 16;
    n -= 16;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold: the high state byte pairs with the first input
    // byte (the MSB-first bit order of ECMA-182 over the state).
    state ^= __builtin_bswap64(word);
    state = t[7][(state >> 56) & 0xff] ^ t[6][(state >> 48) & 0xff] ^
            t[5][(state >> 40) & 0xff] ^ t[4][(state >> 32) & 0xff] ^
            t[3][(state >> 24) & 0xff] ^ t[2][(state >> 16) & 0xff] ^
            t[1][(state >> 8) & 0xff] ^ t[0][state & 0xff];
    p += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    state =
        (state << 8) ^
        t[0][static_cast<std::size_t>((state >> 56) ^ p[i])];
  }
  return state;
}

#if defined(__x86_64__)
namespace {

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), MSB-first form.
// update(S, M) = (S·x^8n + M·x^64) mod P, so the state is XORed into the
// top 64 bits of the first 128-bit block. Each byte-reversed block holds
// the coefficient of x^i in bit i; a block H·x^64 + L that sits d bits
// ahead of another folds into it as H·(x^(d+64) mod P) + L·(x^d mod P),
// two 64x64 products of at most 127 bits.
constexpr std::uint64_t xpow_mod(unsigned k) {
  std::uint64_t v = 1ULL << 63;  // x^63
  for (unsigned i = 63; i < k; ++i) {
    v = (v & (1ULL << 63)) ? (v << 1) ^ kPoly : v << 1;
  }
  return v;
}

constexpr std::uint64_t kX576 = xpow_mod(576);  // four blocks ahead
constexpr std::uint64_t kX512 = xpow_mod(512);
constexpr std::uint64_t kX192 = xpow_mod(192);  // one block ahead
constexpr std::uint64_t kX128 = xpow_mod(128);

// Shorter inputs stay on the table loop: below this the fold's setup and
// remainder pass cost more than the blocks it folds.
constexpr std::size_t kFoldMinBytes = 64;

[[gnu::target("pclmul,ssse3")]] inline __m128i byte_reverse(__m128i v) {
  const __m128i rev =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(v, rev);
}

[[gnu::target("pclmul,ssse3")]] inline __m128i load_block(
    const unsigned char* p) {
  return byte_reverse(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// a·x^d mod P up to 128 bits, with k = (x^(d+64) mod P, x^d mod P).
[[gnu::target("pclmul,ssse3")]] inline __m128i fold(__m128i a, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                       _mm_clmulepi64_si128(a, k, 0x00));
}

[[gnu::target("pclmul,ssse3")]] std::uint64_t fold_blocks(
    std::uint64_t state, const unsigned char* p, std::size_t n) {
  __m128i a0 = _mm_xor_si128(
      load_block(p), _mm_set_epi64x(static_cast<long long>(state), 0));
  __m128i a1 = load_block(p + 16);
  __m128i a2 = load_block(p + 32);
  __m128i a3 = load_block(p + 48);
  p += 64;
  n -= 64;

  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kX576),
                                      static_cast<long long>(kX512));
  while (n >= 64) {
    a0 = _mm_xor_si128(fold(a0, k512), load_block(p));
    a1 = _mm_xor_si128(fold(a1, k512), load_block(p + 16));
    a2 = _mm_xor_si128(fold(a2, k512), load_block(p + 32));
    a3 = _mm_xor_si128(fold(a3, k512), load_block(p + 48));
    p += 64;
    n -= 64;
  }

  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kX192),
                                      static_cast<long long>(kX128));
  __m128i acc = _mm_xor_si128(fold(a0, k128), a1);
  acc = _mm_xor_si128(fold(acc, k128), a2);
  acc = _mm_xor_si128(fold(acc, k128), a3);
  while (n >= 16) {
    acc = _mm_xor_si128(fold(acc, k128), load_block(p));
    p += 16;
    n -= 16;
  }

  // The 128-bit remainder R, stored big-endian, is a 16-byte message:
  // update(0, R) = R·x^64 mod P. The tail then continues from there.
  unsigned char rem[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rem), byte_reverse(acc));
  return update_table(update_table(0, rem, sizeof(rem)), p, n);
}

bool detect_fold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("ssse3");
}

// Set once while the program loads. A crc64 call from a static
// initialiser that runs earlier reads false and takes the table loop.
const bool g_fold = detect_fold();

}  // namespace

bool fold_supported() { return g_fold; }

std::uint64_t update_fold(std::uint64_t state, const void* data,
                          std::size_t n) {
  if (n < kFoldMinBytes) return update_table(state, data, n);
  return fold_blocks(state, static_cast<const unsigned char*>(data), n);
}
#else
bool fold_supported() { return false; }

std::uint64_t update_fold(std::uint64_t state, const void* data,
                          std::size_t n) {
  return update_table(state, data, n);
}
#endif

}  // namespace crc64_kernels

std::uint64_t crc64_update(std::uint64_t state, const void* data,
                           std::size_t n) {
  return crc64_kernels::fold_supported()
             ? crc64_kernels::update_fold(state, data, n)
             : crc64_kernels::update_table(state, data, n);
}

std::uint64_t crc64(const void* data, std::size_t n) {
  return crc64_final(crc64_update(crc64_init(), data, n));
}

}  // namespace nvmcp
