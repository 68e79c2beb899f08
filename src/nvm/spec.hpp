// Hardware parameter sets for the emulated devices (paper Table I).
//
// The paper's five-year PCM projection (Numonyx, ref [11]):
//   write bandwidth ~2 GB/s, page write latency ~1 us,
//   page read latency ~50 ns, endurance ~1e8 writes
// versus DRAM at ~8 GB/s, 20-50 ns, 1e16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace nvmcp {

struct NvmSpec {
  std::string name = "PCM";
  double write_bandwidth = 2.0e9;   // bytes/sec, device aggregate
  double read_bandwidth = 8.0e9;    // bytes/sec (reads ~DRAM speed)
  double page_write_latency = 1e-6; // sec, once per device write call: one
                                    // pipelined request, whose later pages
                                    // stream behind the bandwidth term
  double page_read_latency = 50e-9; // sec
  double write_endurance = 1e8;     // writes/cell before wear-out
  double write_energy_ratio = 40.0; // x DRAM energy per bit (reporting only)

  /// Table I DRAM column, for baselines.
  static NvmSpec dram() {
    NvmSpec s;
    s.name = "DRAM";
    s.write_bandwidth = 8.0e9;
    s.read_bandwidth = 8.0e9;
    s.page_write_latency = 35e-9;
    s.page_read_latency = 35e-9;
    s.write_endurance = 1e16;
    s.write_energy_ratio = 1.0;
    return s;
  }

  /// Table I PCM column (the default-constructed value).
  static NvmSpec pcm() { return NvmSpec{}; }

  /// A spec scaled by `f` in both bandwidths; used to shrink experiment
  /// wall-clock while preserving every bandwidth *ratio* in the system.
  NvmSpec scaled(double f) const {
    NvmSpec s = *this;
    s.write_bandwidth *= f;
    s.read_bandwidth *= f;
    return s;
  }
};

}  // namespace nvmcp
