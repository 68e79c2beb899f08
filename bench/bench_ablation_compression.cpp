// Ablation: the transport codec on checkpoint payload shapes.
//
// The paper's reference [7] (mcrEngine, SC'12) shows data-aware
// aggregation + compression shrinks checkpoint I/O substantially. This
// ablation runs the *production* frame codec (compress::FrameEncoder /
// decode_frame -- the same path the remote helper ships through) over
// three payload shapes, for each wire codec:
//
//   lz     self-contained LZ frame
//   delta  XOR against the previous epoch's payload, then LZ. The helper
//          ships no delta (its base would live only in the sender's
//          ring, which a hard failure loses); this row is the evidence a
//          delta against versions the buddy keeps would need.
//
// and reports the achieved ratio, encode/decode throughput, and the
// modeled ship time vs raw at two link bandwidths (encode_time +
// frame/bw vs raw/bw -- the CodecTuner's cost model, evaluated offline).
// A codec that cannot shrink a payload degrades to framed-raw; the table
// shows that as ratio ~100% with codec "raw".
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "compress/codec.hpp"

namespace {

using namespace nvmcp;
using compress::Codec;
using compress::FrameEncoder;

std::vector<std::byte> make_payload(const std::string& kind, std::size_t n,
                                    int epoch) {
  std::vector<std::byte> buf(n);
  Rng rng(11 + static_cast<std::uint64_t>(epoch));
  if (kind == "smooth-field") {
    // CM1/GTC-like smooth double field, drifting a little per epoch.
    std::vector<double> field(n / 8);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = 300.0 + 1e-3 * static_cast<double>((i + epoch) % 4096);
    }
    std::memcpy(buf.data(), field.data(), field.size() * 8);
  } else if (kind == "sparse-update") {
    // Mostly-zero array with scattered particle updates (the driver's
    // touch pattern); each epoch rewrites one word in sixteen, the rest
    // carry over -- the shape XOR-delta exists for.
    for (std::size_t off = 0; off + 8 <= n; off += 256) {
      const bool touched = (off / 256) % 16 == 0;
      Rng wr(off * 0x9e3779b9u + (touched ? static_cast<unsigned>(epoch) : 0));
      const std::uint64_t v = wr.next_u64();
      std::memcpy(buf.data() + off, &v, 8);
    }
  } else {  // "random"
    for (auto& b : buf) b = static_cast<std::byte>(rng.next_u64());
  }
  return buf;
}

}  // namespace

int main() {
  const std::size_t n = 16 * MiB;

  TableWriter table(
      "Ablation: transport frame codec on 16 MiB checkpoint payloads\n"
      "   (production FrameEncoder/decode_frame; delta = XOR vs previous "
      "epoch)",
      {"payload", "want", "framed as", "ratio", "encode", "decode",
       "raw@200MB/s", "framed@200MB/s", "framed@1GB/s"},
      "ablation_compression.csv");

  bool ok = true;
  for (const std::string kind :
       {"smooth-field", "sparse-update", "random"}) {
    const auto base = make_payload(kind, n, /*epoch=*/0);
    const auto payload = make_payload(kind, n, /*epoch=*/1);

    for (const Codec want : {Codec::kLz, Codec::kDelta}) {
      FrameEncoder enc;
      Stopwatch sw;
      const auto fr = enc.encode(want, payload.data(), n,
                                 want == Codec::kDelta ? base.data() : nullptr,
                                 /*base_epoch=*/1);
      const double ct = sw.elapsed();

      std::vector<std::byte> out(n);
      sw.reset();
      const auto st = compress::decode_frame(
          enc.frame(), fr.frame_size,
          fr.codec == Codec::kDelta ? base.data() : nullptr, out.data(),
          out.size());
      const double dt = sw.elapsed();
      if (st != compress::DecodeStatus::kOk ||
          std::memcmp(out.data(), payload.data(), n) != 0) {
        std::fprintf(stderr, "frame round trip failed for %s/%s: %s\n",
                     kind.c_str(), compress::to_string(want),
                     compress::to_string(st));
        ok = false;
        continue;
      }

      const double ratio =
          static_cast<double>(fr.frame_size) / static_cast<double>(n);
      auto ship = [&](double bw, bool framed) {
        const double bytes = framed ? static_cast<double>(fr.frame_size)
                                    : static_cast<double>(n);
        return (framed ? ct : 0.0) + bytes / bw;
      };
      table.row({kind, compress::to_string(want),
                 compress::to_string(fr.codec), TableWriter::pct(ratio),
                 format_seconds(ct), format_seconds(dt),
                 format_seconds(ship(200e6, false)),
                 format_seconds(ship(200e6, true)),
                 format_seconds(ship(1e9, true))});
    }
  }
  table.print();
  std::printf(
      "\nExpected shape: LZ wins on structured payloads and slow links; "
      "delta collapses the sparse-update epoch to near-nothing; random "
      "data degrades to framed-raw (ratio ~100%%) and should ship raw. "
      "The CodecTuner decides raw vs. LZ online; the transport ships no "
      "delta, whose base would live only in the sender's ring.\n");
  return ok ? 0 : 1;
}
