// CodecTuner: per-chunk codec selection for the remote transport.
//
// Instead of hand-picking a codec, the sender chooses per chunk from
//   * a sampled-entropy probe (compress::entropy_probe) of the committed
//     payload the sender has just read for the send,
//   * the DCPCP modification predictor (expected mods/interval -> how much
//     of the chunk changes between epochs, i.e. how small an XOR delta
//     against the previous retained epoch would be), and
//   * an observed cost model: EMA encode throughput and compression ratio
//     per codec versus the observed link bandwidth. The estimated ship
//     time of a codec is encode_time + wire_bytes/link_bw; raw's is
//     raw_bytes/link_bw. The tuner picks the argmin, so a fast link makes
//     it ship raw (encoding would only add latency) while a slow or
//     shared link buys compression with helper CPU -- the arXiv:1705.00264
//     trade, decided from measurements instead of a flag.
//
// Not thread-safe by itself: the remote helper owns one tuner and calls it
// under its send mutex (single-helper discipline, like the staging buffer).
#pragma once

#include <cstddef>
#include <cstdint>

#include "compress/codec.hpp"
#include "core/config.hpp"

namespace nvmcp::core {

class CodecTuner {
 public:
  struct Options {
    /// Entropy (bits/byte) above which LZ is not attempted: near-random
    /// payloads do not shrink and the probe already told us so (-1 =
    /// NVMCP_CODEC_ENTROPY_MAX, default 7.2).
    double entropy_max = -1;
    /// Predicted modified fraction of a chunk below which delta encoding
    /// is expected to beat plain LZ (-1 = NVMCP_CODEC_CHURN_MAX,
    /// default 0.5).
    double churn_delta_max = -1;
    /// Minimum predicted wire shrink (raw/wire) before an encoder is
    /// worth its CPU when the link is not the bottleneck (-1 =
    /// NVMCP_CODEC_MIN_GAIN, default 1.05).
    double min_gain = -1;
    /// EMA smoothing for observed ratios/throughputs.
    double alpha = 0.3;
  };

  /// Apply NVMCP_CODEC_* environment overrides to the -1 fields and clamp
  /// everything to sane ranges.
  static Options resolve(Options opts);

  CodecTuner();
  explicit CodecTuner(Options opts);

  /// What one send should use. `entropy_bits` is the payload's probe
  /// result, `predicted_mods` the DCPCP expectation (0 = unknown),
  /// `base_available` whether a previous retained epoch can serve as a
  /// delta base. Fixed modes (kRaw/kLz/kDelta) pass through (kDelta
  /// degrades to kLz without a base); kAdaptive runs the cost model.
  compress::Codec choose(CodecMode mode, double entropy_bits,
                         std::uint32_t predicted_mods, std::size_t chunk_bytes,
                         bool base_available) const;

  /// Feedback from a completed encode+ship: what the codec actually did
  /// to the bytes, how long encoding took, and how fast the wire moved
  /// them (`ship_seconds` may be 0 when unknown, e.g. a dropped put).
  void observe(compress::Codec used, std::size_t raw_bytes,
               std::size_t wire_bytes, double encode_seconds,
               double ship_seconds);

  /// Observed link bandwidth (bytes/s EMA; 0 until the first timed ship).
  double link_bw() const { return link_bw_; }
  /// Observed wire/raw ratio EMA for a codec (prior until observed).
  double ratio(compress::Codec c) const {
    return ratio_[static_cast<int>(c)];
  }
  const Options& options() const { return opts_; }

 private:
  Options opts_;
  // Per-codec EMA state, indexed by Codec (raw slot unused for tput).
  double ratio_[3];       // wire/raw
  double enc_tput_[3];    // raw bytes/s through the encoder
  bool observed_[3] = {false, false, false};
  double link_bw_ = 0;
};

}  // namespace nvmcp::core
