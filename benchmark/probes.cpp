// Probes: single-layer throughput of the calls a pass depends on, timed
// on a separate unthrottled stack that holds the pass's final payload, so
// the numbers are CPU cost with no bandwidth emulation in them.
#include <cstring>

#include "bench.hpp"
#include "common/checksum.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "compress/codec.hpp"

namespace nvmcp::bench {
namespace {

constexpr int kRounds = 8;

}  // namespace

Values run_probes(const apps::WorkloadSpec& spec, double scale,
                  const Payload& payload) {
  StackConfig cfg = default_stack(payload_bytes(spec, scale));
  cfg.ckpt.local_policy = core::PrecopyPolicy::kNone;
  LocalStack st(cfg, spec, scale);
  double bytes = 0;
  for (std::size_t i = 0; i < st.chunks.size(); ++i) {
    std::memcpy(st.chunks[i]->data(), payload[i].data(), payload[i].size());
    bytes += static_cast<double>(payload[i].size());
  }
  alloc::ChunkAllocator& a = *st.alloc;
  const double chunks = static_cast<double>(st.chunks.size());
  Values v;

  // Whole-chunk commits: copy + fused CRC + record flip.
  double secs = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Stopwatch sw;
    for (alloc::Chunk* c : st.chunks) {
      a.checkpoint_chunk(*c, static_cast<std::uint64_t>(r + 1));
    }
    secs += sw.elapsed();
  }
  v["alloc.commit_GBps"] = bytes * kRounds / secs / 1e9;

  // Verified restores of the committed slots.
  secs = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Stopwatch sw;
    for (alloc::Chunk* c : st.chunks) a.restore_chunk(*c);
    secs += sw.elapsed();
  }
  v["alloc.restore_GBps"] = bytes * kRounds / secs / 1e9;

  // Batched re-arm of every chunk; one store per chunk disarms it again
  // (untimed) so each round arms from the same state.
  secs = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (alloc::Chunk* c : st.chunks) c->as<std::byte>()[0] = std::byte{1};
    const Stopwatch sw;
    a.arm_chunks(st.chunks);
    secs += sw.elapsed();
  }
  v["vmem.arm_us_per_chunk"] = secs * 1e6 / (kRounds * chunks);

  // LZ frame decode (the hard-restart decode path).
  compress::FrameEncoder enc;
  std::vector<std::vector<std::byte>> frames;
  for (const auto& p : payload) {
    const auto fr = enc.encode(compress::Codec::kLz, p.data(), p.size(),
                               nullptr, 0);
    frames.emplace_back(enc.frame(), enc.frame() + fr.frame_size);
  }
  std::vector<std::byte> out;
  secs = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Stopwatch sw;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      out.resize(payload[i].size());
      if (compress::decode_frame(frames[i].data(), frames[i].size(), nullptr,
                                 out.data(), out.size()) !=
          compress::DecodeStatus::kOk) {
        throw NvmcpError("probe: an LZ frame failed to decode");
      }
    }
    secs += sw.elapsed();
  }
  v["compress.decode_MBps"] = bytes * kRounds / secs / 1e6;

  secs = 0;
  volatile std::uint64_t sink = 0;  // the CRCs must be computed
  for (int r = 0; r < kRounds; ++r) {
    const Stopwatch sw;
    for (const auto& p : payload) sink = sink ^ crc64(p.data(), p.size());
    secs += sw.elapsed();
  }
  v["common.crc64_GBps"] = bytes * kRounds / secs / 1e9;
  return v;
}

}  // namespace nvmcp::bench
