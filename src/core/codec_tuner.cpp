#include "core/codec_tuner.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "common/units.hpp"

namespace nvmcp::core {

using compress::Codec;

CodecTuner::Options CodecTuner::resolve(Options o) {
  if (o.entropy_max < 0) {
    o.entropy_max = env::get_double("NVMCP_CODEC_ENTROPY_MAX", 7.2, 0.0, 8.0);
  }
  if (o.min_gain < 0) {
    o.min_gain = env::get_double("NVMCP_CODEC_MIN_GAIN", 1.05, 1.0, 100.0);
  }
  o.entropy_max = std::clamp(o.entropy_max, 0.0, 8.0);
  o.min_gain = std::clamp(o.min_gain, 1.0, 100.0);
  o.alpha = std::clamp(o.alpha, 0.01, 1.0);
  return o;
}

CodecTuner::CodecTuner() : CodecTuner(Options{}) {}

CodecTuner::CodecTuner(Options opts) : opts_(resolve(opts)) {
  // Priors until feedback arrives: LZ on checkpoint payloads lands around
  // 2x and encodes at ~1 GiB/s. The first few observe() calls replace
  // these with measurements.
  ratio_[static_cast<int>(Codec::kRaw)] = 1.0;
  ratio_[static_cast<int>(Codec::kLz)] = 0.5;
  enc_tput_[static_cast<int>(Codec::kRaw)] = 0;
  enc_tput_[static_cast<int>(Codec::kLz)] = 1.0 * GiB;
}

compress::Codec CodecTuner::choose(CodecMode mode, double entropy_bits,
                                   std::size_t chunk_bytes) const {
  switch (mode) {
    case CodecMode::kUnset:
    case CodecMode::kRaw:
      return Codec::kRaw;
    case CodecMode::kLz:
      return Codec::kLz;
    case CodecMode::kAdaptive:
      break;
  }

  // LZ's wire-ratio estimate. The probe bounds what LZ can do on the
  // payload itself (entropy/8 is the ideal-coder floor; the EMA keeps it
  // honest once real ratios exist), and gates it outright: near-random
  // payloads do not shrink.
  const double probe_ratio = std::max(0.02, entropy_bits / 8.0);
  const double lz_ratio =
      observed_[static_cast<int>(Codec::kLz)]
          ? std::max(ratio_[static_cast<int>(Codec::kLz)], probe_ratio * 0.5)
          : probe_ratio;
  if (entropy_bits > opts_.entropy_max || 1.0 / lz_ratio < opts_.min_gain) {
    return Codec::kRaw;
  }

  // Cost model: estimated seconds to get the payload onto the wire.
  const double n = static_cast<double>(chunk_bytes);
  const double bw = link_bw_ > 0 ? link_bw_ : 1.0 * GiB;
  const double t_raw = n / bw;
  const double t_lz =
      n / enc_tput_[static_cast<int>(Codec::kLz)] + lz_ratio * n / bw;
  return t_lz < t_raw ? Codec::kLz : Codec::kRaw;
}

void CodecTuner::observe(compress::Codec used, std::size_t raw_bytes,
                         std::size_t wire_bytes, double encode_seconds,
                         double ship_seconds) {
  if (raw_bytes == 0) return;
  const int i = static_cast<int>(used);
  const double a = opts_.alpha;
  const double r =
      static_cast<double>(wire_bytes) / static_cast<double>(raw_bytes);
  ratio_[i] = observed_[i] ? (1 - a) * ratio_[i] + a * r : r;
  if (used != Codec::kRaw && encode_seconds > 0) {
    const double tput = static_cast<double>(raw_bytes) / encode_seconds;
    enc_tput_[i] = observed_[i] ? (1 - a) * enc_tput_[i] + a * tput : tput;
  }
  observed_[i] = true;
  if (ship_seconds > 0 && wire_bytes > 0) {
    const double bw = static_cast<double>(wire_bytes) / ship_seconds;
    link_bw_ = link_bw_ > 0 ? (1 - a) * link_bw_ + a * bw : bw;
  }
}

}  // namespace nvmcp::core
