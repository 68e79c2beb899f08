#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/checksum_kernels.hpp"
#include "common/rng.hpp"

namespace nvmcp {
namespace {

// CRC-64/WE check value: every stored ChunkRecord, RingSlot and
// CodecHeader checksum depends on it, so a kernel that changed it would
// pass every round trip and fail every reopen.
TEST(Crc64, KnownAnswer) {
  constexpr std::uint64_t kCheck = 0x62EC59E3F1A4F00AULL;
  EXPECT_EQ(crc64("123456789", 9), kCheck);
  EXPECT_EQ(crc64_final(crc64_kernels::update_table(crc64_init(),
                                                    "123456789", 9)),
            kCheck);
}

TEST(Crc64, EmptyInput) {
  EXPECT_EQ(crc64(nullptr, 0), crc64("", 0));
}

TEST(Crc64, DeterministicAndSensitive) {
  const std::string a = "checkpoint payload";
  const std::string b = "checkpoint payloae";  // one byte differs
  EXPECT_EQ(crc64(a.data(), a.size()), crc64(a.data(), a.size()));
  EXPECT_NE(crc64(a.data(), a.size()), crc64(b.data(), b.size()));
}

TEST(Crc64, SingleBitFlipDetected) {
  std::vector<unsigned char> buf(4096, 0xA5);
  const std::uint64_t ref = crc64(buf.data(), buf.size());
  for (std::size_t pos : {std::size_t{0}, std::size_t{2047},
                          std::size_t{4095}}) {
    buf[pos] ^= 0x01;
    EXPECT_NE(crc64(buf.data(), buf.size()), ref);
    buf[pos] ^= 0x01;
  }
  EXPECT_EQ(crc64(buf.data(), buf.size()), ref);
}

TEST(Crc64, StreamingMatchesOneShot) {
  std::vector<unsigned char> buf(10000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const std::uint64_t oneshot = crc64(buf.data(), buf.size());

  std::uint64_t state = crc64_init();
  std::size_t off = 0;
  const std::size_t steps[] = {1, 10, 100, 1000, 8889};
  for (std::size_t s : steps) {
    state = crc64_update(state, buf.data() + off, s);
    off += s;
  }
  ASSERT_EQ(off, buf.size());
  EXPECT_EQ(crc64_final(state), oneshot);
}

TEST(Crc64, LengthSensitive) {
  std::vector<unsigned char> buf(128, 0);
  EXPECT_NE(crc64(buf.data(), 64), crc64(buf.data(), 128));
}

// The carry-less-multiply kernel against the table loop, called directly
// so the dispatch cannot hide a wrong kernel behind the reference.
class Crc64Fold : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!crc64_kernels::fold_supported()) {
      GTEST_SKIP() << "no carry-less-multiply kernel for this CPU or build "
                      "(needs x86-64 with PCLMULQDQ and SSSE3)";
    }
  }

  // Random bytes with 63 bytes of slack so any start offset fits.
  static std::vector<unsigned char> random_bytes(std::size_t n, Rng& rng) {
    std::vector<unsigned char> buf(n + 63);
    for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
    return buf;
  }

  static void expect_same(std::uint64_t state,
                          const std::vector<unsigned char>& buf,
                          std::size_t off, std::size_t n) {
    const unsigned char* p = buf.data() + off;
    EXPECT_EQ(crc64_kernels::update_fold(state, p, n),
              crc64_kernels::update_table(state, p, n))
        << "n=" << n << " offset=" << off << " state=" << std::hex << state;
  }
};

TEST_F(Crc64Fold, MatchesTableOverShortLengthsAndOffsets) {
  Rng rng(1);
  const auto buf = random_bytes(300, rng);
  for (std::size_t off = 0; off < 64; ++off) {
    for (std::size_t n = 0; n <= 300; ++n) {
      expect_same(crc64_init(), buf, off, n);
      expect_same(rng.next_u64(), buf, off, n);
    }
  }
}

TEST_F(Crc64Fold, MatchesTableOverRandomLongLengths) {
  Rng rng(2);
  const auto buf = random_bytes(70000, rng);
  for (int i = 0; i < 300; ++i) {
    const std::size_t off = rng.next_below(64);
    const std::size_t n = rng.next_below(70001);
    expect_same(crc64_init(), buf, off, n);
    expect_same(rng.next_u64(), buf, off, n);
  }
}

TEST_F(Crc64Fold, FragmentChainsMatchOneShot) {
  // Pieces of 1..160 bytes: chains mix table-only pieces, pieces that
  // just reach the fold threshold and pieces that straddle it.
  Rng rng(3);
  const auto buf = random_bytes(8192, rng);
  for (int chain = 0; chain < 500; ++chain) {
    const std::size_t start = rng.next_below(64);
    const std::size_t total = rng.next_below(4097);
    std::uint64_t fold = crc64_init();
    std::uint64_t table = crc64_init();
    for (std::size_t pos = 0; pos < total;) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_below(160), total - pos);
      const unsigned char* p = buf.data() + start + pos;
      fold = crc64_kernels::update_fold(fold, p, n);
      table = crc64_kernels::update_table(table, p, n);
      pos += n;
    }
    ASSERT_EQ(fold, table) << "chain " << chain;
    ASSERT_EQ(crc64_final(fold), crc64(buf.data() + start, total))
        << "chain " << chain;
  }
}

}  // namespace
}  // namespace nvmcp
