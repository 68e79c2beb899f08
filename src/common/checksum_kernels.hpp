// Private to checksum.cpp and its test: the two CRC-64 update kernels
// behind crc64_update. Callers use common/checksum.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nvmcp::crc64_kernels {

/// Slice-by-16 table loop. Runs anywhere; the reference for the fold.
std::uint64_t update_table(std::uint64_t state, const void* data,
                           std::size_t n);

/// True when this build has the carry-less-multiply kernel and this CPU
/// can run it (PCLMULQDQ and SSSE3). Fixed at load time.
bool fold_supported();

/// Carry-less-multiply folding kernel; inputs under 64 bytes go to
/// update_table. Call only when fold_supported().
std::uint64_t update_fold(std::uint64_t state, const void* data,
                          std::size_t n);

}  // namespace nvmcp::crc64_kernels
