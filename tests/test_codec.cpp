// Adaptive transport codec: xor_delta, frame format, CodecTuner policy,
// and the fused remote pipeline -- the frames of every codec mode and
// their hard restore from the buddy alone at ring depths 1, 2 and 4, and
// LZ and adaptive restores.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "compress/lz.hpp"
#include "compress/xor_delta.hpp"
#include "core/codec_tuner.hpp"
#include "core/remote.hpp"

namespace nvmcp {
namespace {

using compress::Codec;
using compress::CodecHeader;
using compress::DecodeStatus;
using compress::FrameEncoder;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed,
                               bool compressible) {
  std::vector<std::byte> v(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = compressible ? static_cast<std::byte>((i / 64) % 7)
                        : static_cast<std::byte>(rng.next_u64());
  }
  return v;
}

// --- xor_delta -------------------------------------------------------

TEST(XorDelta, RoundTripAndAliasing) {
  const auto a = pattern(4099, 1, false);
  const auto b = pattern(4099, 2, false);
  std::vector<std::byte> residue(a.size());
  compress::xor_delta(a.data(), b.data(), a.size(), residue.data());
  // Applying the residue to b recovers a, in place (dst aliases base).
  std::vector<std::byte> out(b);
  compress::xor_delta(residue.data(), out.data(), out.size(), out.data());
  EXPECT_EQ(out, a);
  // Identical inputs produce an all-zero (maximally compressible) residue.
  compress::xor_delta(a.data(), a.data(), a.size(), residue.data());
  for (std::byte x : residue) ASSERT_EQ(x, std::byte{0});
}

// --- frame format ----------------------------------------------------

TEST(CodecFrame, RawLzDeltaRoundTrip) {
  const auto raw = pattern(32 * KiB, 3, true);
  auto base = raw;
  base[123] = static_cast<std::byte>(0xee);  // base differs slightly
  FrameEncoder enc;
  std::vector<std::byte> out(raw.size());

  for (const Codec want : {Codec::kRaw, Codec::kLz, Codec::kDelta}) {
    const auto fr = enc.encode(want, raw.data(), raw.size(), base.data(),
                               /*base_epoch=*/7);
    EXPECT_EQ(fr.codec, want);
    if (want != Codec::kRaw) {
      EXPECT_LT(fr.frame_size, compress::max_frame_size(raw.size()));
    }
    const DecodeStatus st = compress::decode_frame(
        enc.frame(), fr.frame_size,
        want == Codec::kDelta ? base.data() : nullptr, out.data(),
        out.size());
    ASSERT_EQ(st, DecodeStatus::kOk) << compress::to_string(want);
    EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0);
  }
}

TEST(CodecFrame, IncompressiblePayloadFallsBackToRawFraming) {
  const auto raw = pattern(16 * KiB, 4, false);
  FrameEncoder enc;
  const auto fr = enc.encode(Codec::kLz, raw.data(), raw.size(), nullptr, 0);
  EXPECT_EQ(fr.codec, Codec::kRaw);
  EXPECT_EQ(fr.frame_size, compress::max_frame_size(raw.size()));
  CodecHeader hdr;
  ASSERT_TRUE(compress::peek_frame(enc.frame(), fr.frame_size, &hdr));
  EXPECT_EQ(hdr.base_epoch, 0u);  // fallback never references a base
}

TEST(CodecFrame, MalformedHeadersRejected) {
  const auto raw = pattern(1024, 5, true);
  FrameEncoder enc;
  const auto fr = enc.encode(Codec::kLz, raw.data(), raw.size(), nullptr, 0);
  std::vector<std::byte> frame(enc.frame(), enc.frame() + fr.frame_size);

  CodecHeader hdr;
  EXPECT_TRUE(compress::peek_frame(frame.data(), frame.size(), &hdr));
  EXPECT_FALSE(compress::peek_frame(frame.data(), 12, &hdr));  // short

  auto bad = frame;
  bad[0] ^= std::byte{0xff};  // magic
  EXPECT_FALSE(compress::peek_frame(bad.data(), bad.size(), &hdr));
  bad = frame;
  bad[4] = std::byte{9};  // unknown codec id
  EXPECT_FALSE(compress::peek_frame(bad.data(), bad.size(), &hdr));
  bad = frame;
  bad[5] = std::byte{2};  // unknown version
  EXPECT_FALSE(compress::peek_frame(bad.data(), bad.size(), &hdr));
  bad = frame;
  bad[16] = std::byte{1};  // non-delta frame claiming a base epoch
  EXPECT_FALSE(compress::peek_frame(bad.data(), bad.size(), &hdr));
}

TEST(CodecFrame, DeltaWithoutBaseAndCrcTampering) {
  const auto raw = pattern(8 * KiB, 6, true);
  auto base = raw;
  base[1] = std::byte{0x55};
  FrameEncoder enc;
  const auto fr =
      enc.encode(Codec::kDelta, raw.data(), raw.size(), base.data(), 3);
  ASSERT_EQ(fr.codec, Codec::kDelta);
  std::vector<std::byte> out(raw.size());
  EXPECT_EQ(compress::decode_frame(enc.frame(), fr.frame_size, nullptr,
                                   out.data(), out.size()),
            DecodeStatus::kNeedBase);
  // The *wrong* base inflates fine but fails the raw CRC: corruption (or
  // a stale base) is detected, never laundered into restored state.
  auto wrong = base;
  wrong[4000] ^= std::byte{0x80};
  EXPECT_EQ(compress::decode_frame(enc.frame(), fr.frame_size, wrong.data(),
                                   out.data(), out.size()),
            DecodeStatus::kCrcMismatch);
  // Undersized destination is refused up front.
  EXPECT_EQ(compress::decode_frame(enc.frame(), fr.frame_size, base.data(),
                                   out.data(), out.size() - 1),
            DecodeStatus::kTooLarge);
}

TEST(CodecFrame, TruncatedFramesNeverLaunderBytes) {
  // Cut the frame at every byte. Most cuts are rejected outright; a cut
  // may only decode kOk when the shortened body is itself a valid stream
  // for the same payload (the encoder's empty trailing-literal token is
  // such a redundant byte) -- and then the raw CRC has already proven the
  // output byte-exact. What can never happen is kOk with wrong bytes.
  const auto raw = pattern(8 * KiB, 7, true);
  FrameEncoder enc;
  const auto fr = enc.encode(Codec::kLz, raw.data(), raw.size(), nullptr, 0);
  ASSERT_EQ(fr.codec, Codec::kLz);
  std::vector<std::byte> out(raw.size());
  for (std::size_t cut = 0; cut < fr.frame_size; ++cut) {
    const DecodeStatus st = compress::decode_frame(enc.frame(), cut, nullptr,
                                                   out.data(), out.size());
    if (st == DecodeStatus::kOk) {
      EXPECT_EQ(std::memcmp(out.data(), raw.data(), raw.size()), 0)
          << "cut=" << cut;
    }
  }
  // A cut inside the header is always fatal.
  EXPECT_EQ(compress::decode_frame(enc.frame(), compress::kCodecHeaderSize - 1,
                                   nullptr, out.data(), out.size()),
            DecodeStatus::kBadFrame);
}

TEST(CodecFrame, EntropyProbeExtremes) {
  const auto zeros = std::vector<std::byte>(64 * KiB, std::byte{0});
  EXPECT_NEAR(compress::entropy_probe(zeros.data(), zeros.size()), 0.0, 1e-9);
  const auto noise = pattern(256 * KiB, 8, false);
  EXPECT_GT(compress::entropy_probe(noise.data(), noise.size()), 7.5);
  EXPECT_EQ(compress::entropy_probe(noise.data(), 0), 0.0);
}

// --- tuner policy ----------------------------------------------------

TEST(CodecTuner, FixedModesPassThrough) {
  core::CodecTuner t;
  EXPECT_EQ(t.choose(core::CodecMode::kRaw, 2.0, 1 * MiB), Codec::kRaw);
  EXPECT_EQ(t.choose(core::CodecMode::kLz, 8.0, 1 * MiB), Codec::kLz);
}

TEST(CodecTuner, AdaptiveGatesOnEntropyAndBandwidth) {
  core::CodecTuner t;
  // Teach it a slow link (1 MiB ships in 10 ms ~ 100 MB/s): compression
  // is now worth helper CPU.
  t.observe(Codec::kRaw, 1 * MiB, 1 * MiB, 0.0, 0.010);
  // Near-random payload: the entropy gate keeps it raw.
  EXPECT_EQ(t.choose(core::CodecMode::kAdaptive, 7.9, 1 * MiB), Codec::kRaw);
  // Compressible payload: LZ.
  EXPECT_EQ(t.choose(core::CodecMode::kAdaptive, 2.0, 1 * MiB), Codec::kLz);
}

TEST(CodecTuner, AdaptivePrefersRawOnFastLink) {
  core::CodecTuner t;
  // 10 GB/s observed link: even a 4x shrink cannot beat just shipping.
  t.observe(Codec::kRaw, 1 * MiB, 1 * MiB, 0.0, 1e-4);
  t.observe(Codec::kLz, 1 * MiB, 256 * KiB, 0.004, 0.0);  // 256 MB/s encode
  EXPECT_EQ(t.choose(core::CodecMode::kAdaptive, 2.0, 1 * MiB), Codec::kRaw);
}

TEST(CodecTuner, ObserveLearnsRatioAndBandwidth) {
  core::CodecTuner t;
  t.observe(Codec::kLz, 1000000, 250000, 0.001, 0.010);
  EXPECT_NEAR(t.ratio(Codec::kLz), 0.25, 1e-9);
  EXPECT_NEAR(t.link_bw(), 25e6, 1.0);
  t.observe(Codec::kLz, 1000000, 750000, 0.001, 0.0);
  EXPECT_GT(t.ratio(Codec::kLz), 0.25);  // EMA moved toward 0.75
  EXPECT_LT(t.ratio(Codec::kLz), 0.75);
}

TEST(CodecConfig, EnvResolution) {
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kLz),
            core::CodecMode::kLz);  // explicit config wins over env
  setenv("NVMCP_CODEC", "adaptive", 1);
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kUnset),
            core::CodecMode::kAdaptive);
  setenv("NVMCP_CODEC", "delta", 1);  // no delta mode: unrecognized
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kUnset),
            core::CodecMode::kRaw);
  setenv("NVMCP_CODEC", "lz", 1);
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kUnset),
            core::CodecMode::kLz);
  setenv("NVMCP_CODEC", "bogus", 1);
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kUnset),
            core::CodecMode::kRaw);
  unsetenv("NVMCP_CODEC");
  EXPECT_EQ(core::resolve_codec_mode(core::CodecMode::kUnset),
            core::CodecMode::kRaw);
}

// --- fused remote pipeline -------------------------------------------

struct Rig {
  explicit Rig(core::CodecMode mode, std::uint32_t ring_depth = 1,
               double link_bw = 2.0e9)
      : link(link_bw, 0.1) {
    NvmConfig cfg;
    cfg.capacity = 64 * MiB;
    cfg.throttle = false;
    dev = std::make_unique<NvmDevice>(cfg);
    container = std::make_unique<vmem::Container>(*dev);
    alloc::ChunkAllocator::Options aopts;
    aopts.ring_depth = static_cast<int>(ring_depth);
    allocator = std::make_unique<alloc::ChunkAllocator>(*container, aopts);
    core::CheckpointConfig ccfg;
    ccfg.codec_mode = mode;
    mgr = std::make_unique<core::CheckpointManager>(*allocator, ccfg);

    NvmConfig scfg;
    scfg.capacity = 64 * MiB;
    scfg.throttle = false;
    store = std::make_unique<net::RemoteStore>(scfg);
    remote = std::make_unique<net::RemoteMemory>(link, *store);
    core::RemoteConfig rcfg;
    rcfg.policy = core::PrecopyPolicy::kNone;  // burst in coordinate_now
    helper = std::make_unique<core::RemoteCheckpointer>(
        std::vector<core::CheckpointManager*>{mgr.get()}, *remote, rcfg);
  }

  void fill(alloc::Chunk& c, std::uint64_t seed, bool compressible) {
    const auto v = pattern(c.size(), seed, compressible);
    std::memcpy(c.data(), v.data(), v.size());
    c.notify_write();
  }

  bool matches(const alloc::Chunk& c, std::uint64_t seed,
               bool compressible) {
    const auto v = pattern(c.size(), seed, compressible);
    return std::memcmp(c.data(), v.data(), v.size()) == 0;
  }

  void corrupt_newest_local(alloc::Chunk& c) {
    const auto& rec = c.record();
    dev->data()[rec.slot_off[rec.committed] + 9] ^= std::byte{0xff};
  }

  net::Interconnect link;
  std::unique_ptr<NvmDevice> dev;
  std::unique_ptr<vmem::Container> container;
  std::unique_ptr<alloc::ChunkAllocator> allocator;
  std::unique_ptr<core::CheckpointManager> mgr;
  std::unique_ptr<net::RemoteStore> store;
  std::unique_ptr<net::RemoteMemory> remote;
  std::unique_ptr<core::RemoteCheckpointer> helper;
};

// Two clean rounds, the second a 2 KiB splice into each chunk, then a
// hard restart into a fresh stack at the same ring depth: every chunk
// comes back byte-exact from the buddy's frames alone. The 512 KiB chunk
// is incompressible, so only a delta against the sender's ring could
// shrink its second round -- and that base dies with the node.
void expect_hard_restore_exact(core::CodecMode mode,
                               std::uint32_t ring_depth) {
  SCOPED_TRACE(std::string(core::to_string(mode)) + " at depth " +
               std::to_string(ring_depth));
  Rig rig(mode, ring_depth, /*link_bw=*/50e6);
  const std::size_t sizes[] = {64 * KiB, 96 * KiB, 32 * KiB, 512 * KiB};
  constexpr int kChunks = 4;
  std::vector<alloc::Chunk*> chunks;
  for (int i = 0; i < kChunks; ++i) {
    chunks.push_back(rig.allocator->nvalloc("img_" + std::to_string(i),
                                            sizes[i], true));
    rig.fill(*chunks[i], 40 + static_cast<std::uint64_t>(i),
             /*compressible=*/i % 2 == 0);
  }
  rig.mgr->nvchkptall();
  ASSERT_FALSE(rig.helper->coordinate_now().degraded);
  for (alloc::Chunk* c : chunks) {
    std::memset(static_cast<std::byte*>(c->data()) + 1024, 0x77, 2 * KiB);
    c->notify_write();
  }
  rig.mgr->nvchkptall();
  ASSERT_FALSE(rig.helper->coordinate_now().degraded);

  if (mode == core::CodecMode::kRaw) {
    // Raw mode ships raw frames: every put counts as a raw choice, and
    // each frame is header + payload.
    auto& m = rig.helper->metrics();
    EXPECT_EQ(m.counter("remote.coordinated_puts").value() +
                  m.counter("remote.precopy_puts").value(),
              2u * kChunks);
    EXPECT_EQ(m.counter("codec.choice.raw").value(), 2u * kChunks);
    EXPECT_EQ(m.counter("codec.bytes_out").value(),
              m.counter("codec.bytes_in").value() +
                  2 * kChunks * compress::kCodecHeaderSize);

    // A stored raw frame verifies itself: a bit flipped in its body is
    // rejected at decode by the header's raw CRC.
    std::vector<std::byte> frame(compress::max_frame_size(sizes[0]));
    const std::size_t fn = rig.remote->get(
        rig.mgr->config().rank, chunks[0]->id(), frame.data(), frame.size());
    ASSERT_EQ(fn, frame.size());
    frame[compress::kCodecHeaderSize + 100] ^= std::byte{0x04};
    std::vector<std::byte> out(sizes[0]);
    EXPECT_EQ(compress::decode_frame(frame.data(), fn, nullptr, out.data(),
                                     out.size()),
              compress::DecodeStatus::kCrcMismatch);
  }

  // Hard failure: a fresh stack (device, allocator, manager; same rank
  // and ring depth).
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator::Options aopts;
  aopts.ring_depth = static_cast<int>(ring_depth);
  alloc::ChunkAllocator allocator(container, aopts);
  core::CheckpointManager mgr(allocator, rig.mgr->config());
  for (int i = 0; i < kChunks; ++i) {
    allocator.nvalloc("img_" + std::to_string(i), sizes[i], true);
  }
  core::RestartCoordinator rc(mgr, rig.remote.get());
  const auto rep = rc.restart_after(core::FailureKind::kHard);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote)
      << to_string(rep.status);
  EXPECT_EQ(rep.chunks_remote, kChunks);
  for (int i = 0; i < kChunks; ++i) {
    EXPECT_EQ(std::memcmp(allocator.find(chunks[i]->id())->data(),
                          chunks[i]->data(), sizes[i]),
              0)
        << "chunk " << i;
  }
}

TEST(CodecPipeline, EveryModeShipsFramesThatHardRestoreExactly) {
  for (const core::CodecMode mode :
       {core::CodecMode::kRaw, core::CodecMode::kLz,
        core::CodecMode::kAdaptive}) {
    for (const std::uint32_t depth : {1u, 2u, 4u}) {
      expect_hard_restore_exact(mode, depth);
    }
  }
}

TEST(CodecPipeline, LzModeShrinksLinkBytesAndRestoresExactly) {
  Rig rig(core::CodecMode::kLz);
  auto* c = rig.allocator->nvalloc("lz_chunk", 1 * MiB, true);
  rig.fill(*c, 50, /*compressible=*/true);
  rig.mgr->nvchkptall();
  ASSERT_FALSE(rig.helper->coordinate_now().degraded);

  auto& m = rig.helper->metrics();
  EXPECT_GE(m.counter("codec.choice.lz").value(), 1u);
  EXPECT_LT(m.counter("codec.bytes_out").value(),
            m.counter("codec.bytes_in").value() / 2);
  // The link carried the encoded frame, not the raw payload.
  EXPECT_LT(rig.link.stats().checkpoint_bytes, c->size() / 2);

  rig.corrupt_newest_local(*c);
  rig.fill(*c, 99, false);  // trash DRAM too
  core::RestartCoordinator rc(*rig.mgr, rig.remote.get());
  const auto rep = rc.restart_after(core::FailureKind::kSoft);
  EXPECT_EQ(rep.status, RestoreStatus::kOkFromRemote);
  EXPECT_EQ(rep.chunks_remote, 1);
  EXPECT_TRUE(rig.matches(*c, 50, true));
}

TEST(CodecPipeline, AdaptiveLearnsLzOnSlowLink) {
  // 100 MB/s link: after the first (raw, prior-driven) round teaches the
  // tuner the real bandwidth, the cost model flips compressible payloads
  // to LZ and the wire gets cheaper.
  Rig rig(core::CodecMode::kAdaptive, 1, /*link_bw=*/1.0e8);
  auto* c = rig.allocator->nvalloc("ad_chunk", 1 * MiB, true);
  for (std::uint64_t round = 0; round < 3; ++round) {
    rig.fill(*c, 80 + round, /*compressible=*/true);
    rig.mgr->nvchkptall();
    ASSERT_FALSE(rig.helper->coordinate_now().degraded);
  }
  auto& m = rig.helper->metrics();
  EXPECT_GE(m.counter("codec.choice.lz").value(), 1u);
  EXPECT_LT(m.counter("codec.bytes_out").value(),
            m.counter("codec.bytes_in").value());
  // And the remote cut still restores byte-exactly.
  rig.corrupt_newest_local(*c);
  rig.fill(*c, 99, false);
  core::RestartCoordinator rc(*rig.mgr, rig.remote.get());
  EXPECT_EQ(rc.restart_after(core::FailureKind::kSoft).status,
            RestoreStatus::kOkFromRemote);
  EXPECT_TRUE(rig.matches(*c, 82, true));
}

}  // namespace
}  // namespace nvmcp
