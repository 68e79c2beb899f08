// Micro-benchmarks (google-benchmark) for the core primitives: emulated
// NVM write path, checksums, chunk checkpoint/commit, protection-fault
// cost, and the simulator's event throughput.
#include <benchmark/benchmark.h>

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/checksum.hpp"
#include "alloc/nvmalloc.hpp"
#include "common/rng.hpp"
#include "sim/resource.hpp"
#include "vmem/protection.hpp"

namespace {

using namespace nvmcp;

void BM_NvmWriteUnthrottled(benchmark::State& state) {
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n, std::byte{1});
  for (auto _ : state) {
    dev.write(0, src.data(), n);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NvmWriteUnthrottled)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_Crc64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(n, std::byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc64(buf.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 64 B (the fold's dispatch threshold, and the store size of the
// dirty-tracking smoke) and 512 B stand for small write-log ranges; 4 KiB
// and up for page and chunk copies.
BENCHMARK(BM_Crc64)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Arg(1 << 20)
    ->Arg(16 << 20);

// Streaming-update throughput on cache-resident blocks: this is exactly
// the shape the fused copy+CRC path feeds crc64_update (one block per
// ThrottledCopier slice), so bytes/sec here is the checksum tax paid by
// every checkpoint copy. On a 4-vCPU 2.1 GHz Xeon VM the slice-by-16
// table loop measured 2.0-2.1 GiB/s here and the carry-less-multiply
// kernel, used on x86-64 CPUs with PCLMULQDQ, 19-24 GiB/s.
void BM_Crc64StreamingUpdate(benchmark::State& state) {
  constexpr std::size_t kBlock = 256 * KiB;  // copier slice size
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(n, std::byte{0x5a});
  for (auto _ : state) {
    std::uint64_t s = crc64_init();
    for (std::size_t off = 0; off < n; off += kBlock) {
      s = crc64_update(s, buf.data() + off, std::min(kBlock, n - off));
    }
    benchmark::DoNotOptimize(crc64_final(s));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc64StreamingUpdate)->Arg(1 << 20)->Arg(16 << 20);

void BM_CheckpointChunk(benchmark::State& state) {
  NvmConfig cfg;
  cfg.capacity = 64 * MiB;
  cfg.throttle = false;
  NvmDevice dev(cfg);
  vmem::Container container(dev);
  alloc::ChunkAllocator allocator(container);
  alloc::Chunk* c = allocator.nvalloc(
      "bench", static_cast<std::size_t>(state.range(0)), true);
  std::memset(c->data(), 0x42, c->size());
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    c->tracker().mark_dirty();
    allocator.checkpoint_chunk(*c, ++epoch);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CheckpointChunk)->Arg(65536)->Arg(1 << 20)->Arg(8 << 20);

void BM_ProtectionFaultCost(benchmark::State& state) {
  // Measures one protect + faulting store cycle: the paper quotes
  // 6-12 us per protection fault.
  const std::size_t page = vmem::ProtectionManager::host_page_size();
  void* buf = ::mmap(nullptr, 16 * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  vmem::WriteTracker tracker;
  auto& mgr = vmem::ProtectionManager::instance();
  const int h = mgr.register_range(buf, 16 * page, &tracker,
                                   vmem::TrackMode::kMprotect);
  auto* p = static_cast<volatile unsigned char*>(buf);
  for (auto _ : state) {
    mgr.protect(h);
    p[0] = 1;  // SIGSEGV -> handler -> unprotect whole chunk
  }
  mgr.unregister_range(h);
  ::munmap(buf, 16 * page);
}
BENCHMARK(BM_ProtectionFaultCost);

void BM_SoftwareNotifyCost(benchmark::State& state) {
  std::vector<std::byte> buf(4096);
  vmem::WriteTracker tracker;
  auto& mgr = vmem::ProtectionManager::instance();
  const int h = mgr.register_range(buf.data(), buf.size(), &tracker,
                                   vmem::TrackMode::kSoftware);
  for (auto _ : state) {
    mgr.protect(h);
    mgr.notify_write(h);
  }
  mgr.unregister_range(h);
}
BENCHMARK(BM_SoftwareNotifyCost);

void BM_SimEngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(static_cast<double>(i), [&fired] { ++fired; });
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimEngineEvents);

void BM_SimProcessorSharing(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::SharedBandwidth pipe(eng, 1e9, 1.0);
    int done = 0;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<double>(i) * 0.01, [&, i] {
        pipe.submit(1e7, i % 2, [&done](double) { ++done; });
      });
    }
    eng.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_SimProcessorSharing);

}  // namespace
