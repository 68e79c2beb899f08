#include "common/env.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace nvmcp::env {
namespace {

const char* raw(const char* name) { return std::getenv(name); }

}  // namespace

std::string get_string(const char* name, const std::string& def) {
  const char* v = raw(name);
  if (!v) return def;
  log_debug("env: %s=%s", name, v);
  return std::string(v);
}

std::int64_t get_i64(const char* name, std::int64_t def, std::int64_t lo,
                     std::int64_t hi) {
  const char* v = raw(name);
  if (!v) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return def;  // unparsable -> default, like every caller did
  std::int64_t out = static_cast<std::int64_t>(parsed);
  const std::int64_t before = out;
  if (out < lo) out = lo;
  if (out > hi) out = hi;
  log_debug("env: %s=%lld -> %lld%s", name, static_cast<long long>(before),
            static_cast<long long>(out), before == out ? "" : " (clamped)");
  return out;
}

double get_double(const char* name, double def, double lo, double hi) {
  const char* v = raw(name);
  if (!v) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v) return def;
  double out = parsed;
  if (out < lo) out = lo;
  if (out > hi) out = hi;
  log_debug("env: %s=%g -> %g%s", name, parsed, out,
            parsed == out ? "" : " (clamped)");
  return out;
}

}  // namespace nvmcp::env
