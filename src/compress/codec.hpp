// Framed adaptive codec for checkpoint payloads in transit.
//
// A *frame* is what the remote transport ships and the buddy store holds:
// a fixed 32-byte CodecHeader followed by the encoded body. The header
// names the codec, the decoded size, the XOR base epoch (delta frames)
// and -- the integrity anchor -- the CRC-64 of the *raw* payload bytes.
// Transport/storage corruption is caught by the store's per-slot frame
// checksum; the raw CRC closes the laundering gap behind it: no decode
// path can hand back bytes that differ from what the sender encoded, even
// if the corruption survives (or happens after) the frame checksum.
//
// Codecs:
//   kRaw    header + payload verbatim (the fallback every other codec
//           degrades to when encoding does not shrink the payload)
//   kLz     header + lz_compress(payload)
//   kDelta  header + lz_compress(payload XOR base), where base is the
//           retained epoch `base_epoch` of the same chunk, and decoding
//           needs that epoch's payload. The remote transport ships only
//           raw and LZ frames, which decode on their own, and its sender
//           pins no base; kDelta stays in the grammar for the codec
//           ablation and the benchmark probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvmcp::compress {

enum class Codec : std::uint8_t { kRaw = 0, kLz = 1, kDelta = 2 };

inline const char* to_string(Codec c) {
  switch (c) {
    case Codec::kRaw: return "raw";
    case Codec::kLz: return "lz";
    case Codec::kDelta: return "delta";
  }
  return "?";
}

constexpr std::uint32_t kCodecMagic = 0x4643564eu;  // "NVCF" little-endian
constexpr std::size_t kCodecHeaderSize = 32;

/// Fixed-layout frame header (serialized little-endian via memcpy; every
/// supported target is little-endian x86/arm64).
struct CodecHeader {
  std::uint32_t magic = kCodecMagic;
  std::uint8_t codec = 0;     // Codec
  std::uint8_t version = 1;
  std::uint16_t reserved = 0;
  std::uint64_t raw_size = 0;    // decoded payload bytes
  std::uint64_t base_epoch = 0;  // kDelta only; 0 otherwise
  std::uint64_t raw_crc = 0;     // crc64 of the decoded payload
};

static_assert(sizeof(CodecHeader) == kCodecHeaderSize,
              "CodecHeader is a wire format");

/// Upper bound on the frame size for an n-byte payload: encoders that
/// would exceed the raw body fall back to raw framing, so a frame is never
/// larger than header + payload.
constexpr std::size_t max_frame_size(std::size_t n) {
  return kCodecHeaderSize + n;
}

/// Parse and validate a frame header. Returns false when `n` is too short
/// or the magic/version/codec fields are malformed.
bool peek_frame(const void* frame, std::size_t n, CodecHeader* out);

enum class DecodeStatus : std::uint8_t {
  kOk,
  kBadFrame,      // malformed header/body or body fails to decompress
  kNeedBase,      // delta frame and the caller supplied no base payload
  kCrcMismatch,   // decoded bytes do not match the header's raw CRC
  kTooLarge,      // decoded size exceeds the caller's capacity
};

const char* to_string(DecodeStatus s);

/// Decode a frame into dst (capacity cap). `base` must be the payload of
/// header.base_epoch for delta frames (same raw_size), and may be null
/// otherwise. On kOk exactly header.raw_size bytes were written and they
/// verified against the raw CRC; on any other status dst contents are
/// unspecified and must not be used.
DecodeStatus decode_frame(const void* frame, std::size_t n, const void* base,
                          void* dst, std::size_t cap);

/// Streaming encoder with reusable scratch space (one per sender thread;
/// the remote helper owns one under its send mutex).
class FrameEncoder {
 public:
  struct Result {
    Codec codec = Codec::kRaw;   // what the frame actually uses (an
                                 // encoder that failed to shrink fell
                                 // back to raw framing)
    std::size_t frame_size = 0;  // header + body bytes, ready to ship
  };

  /// Build a frame from raw[0..n) using `want`. kDelta requires `base`
  /// (payload of retained epoch `base_epoch`, same size); kLz/kRaw ignore
  /// it. Whenever the encoded body would not be smaller than the raw
  /// body, the frame degrades to raw framing (Result::codec says so).
  Result encode(Codec want, const void* raw, std::size_t n, const void* base,
                std::uint64_t base_epoch);

  const std::byte* frame() const { return frame_.data(); }

 private:
  std::vector<std::byte> frame_;
  std::vector<std::byte> scratch_;  // XOR residue for delta encoding
};

/// Sampled Shannon-entropy estimate of the payload in bits per byte
/// (0 = all one value, 8 = uniform random). Reads at most `budget` bytes
/// (default 16 KiB) in strided blocks, so probing a multi-MiB chunk costs
/// microseconds. The probe is the cheap first input to codec selection:
/// high-entropy payloads are not worth an LZ attempt.
double entropy_probe(const void* data, std::size_t n, std::size_t budget = 0);

}  // namespace nvmcp::compress
