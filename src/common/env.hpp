// Typed NVMCP_* environment reads (the telemetry settings and the remote
// retry overrides).
//
// Every read follows the same contract:
//   - unset or unparsable  -> default value, no log line
//   - parsable             -> clamped into [lo, hi], one debug log line
//     showing the resolved value (and whether it was clamped)
// Call sites that need bespoke semantics (e.g. "0 means default") apply
// them on top of the raw typed getters.
#pragma once

#include <cstdint>
#include <string>

namespace nvmcp::env {

// Raw string value, or `def` when unset.
std::string get_string(const char* name, const std::string& def);

// Integer knob: unset/unparsable -> def; otherwise clamp to [lo, hi].
std::int64_t get_i64(const char* name, std::int64_t def,
                     std::int64_t lo = INT64_MIN, std::int64_t hi = INT64_MAX);

// Floating-point knob: unset/unparsable -> def; otherwise clamp to [lo, hi].
double get_double(const char* name, double def, double lo, double hi);

}  // namespace nvmcp::env
