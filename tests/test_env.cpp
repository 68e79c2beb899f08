// Environment-knob resolution: the common/env clamp contract and the
// resolve_* helpers layered on it, including the NVMCP_TENANT_* family.
//
// Every test owns its knob via ScopedEnv so the suite is order- and
// environment-independent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hpp"
#include "epoch/directory.hpp"
#include "tenant/admission.hpp"
#include "vmem/protection.hpp"

namespace nvmcp {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

// ---------------------------------------------------------------------------
// common/env raw getters: unset/unparsable -> default, parsable -> clamp.

TEST(Env, I64UnsetReturnsDefault) {
  ScopedEnv e("NVMCP_TEST_KNOB", nullptr);
  EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 7);
  EXPECT_FALSE(env::is_set("NVMCP_TEST_KNOB"));
}

TEST(Env, I64UnparsableReturnsDefault) {
  ScopedEnv e("NVMCP_TEST_KNOB", "banana");
  EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 7);
  EXPECT_TRUE(env::is_set("NVMCP_TEST_KNOB"));
}

TEST(Env, I64ClampsIntoRange) {
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "1000");
    EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 100);
  }
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "-5");
    EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 0);
  }
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "42");
    EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 42);
  }
}

TEST(Env, DoubleClampsIntoRange) {
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "0.5");
    EXPECT_DOUBLE_EQ(env::get_double("NVMCP_TEST_KNOB", 1.0, 0.0, 2.0), 0.5);
  }
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "9.5");
    EXPECT_DOUBLE_EQ(env::get_double("NVMCP_TEST_KNOB", 1.0, 0.0, 2.0), 2.0);
  }
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "nope");
    EXPECT_DOUBLE_EQ(env::get_double("NVMCP_TEST_KNOB", 1.0, 0.0, 2.0), 1.0);
  }
}

TEST(Env, BoolContract) {
  {
    ScopedEnv e("NVMCP_TEST_KNOB", nullptr);
    EXPECT_TRUE(env::get_bool("NVMCP_TEST_KNOB", true));
    EXPECT_FALSE(env::get_bool("NVMCP_TEST_KNOB", false));
  }
  for (const char* off : {"0", "off", "false"}) {
    ScopedEnv e("NVMCP_TEST_KNOB", off);
    EXPECT_FALSE(env::get_bool("NVMCP_TEST_KNOB", true)) << off;
  }
  {
    ScopedEnv e("NVMCP_TEST_KNOB", "1");
    EXPECT_TRUE(env::get_bool("NVMCP_TEST_KNOB", false));
  }
}

TEST(Env, StringDefaultsWhenUnset) {
  ScopedEnv e("NVMCP_TEST_KNOB", nullptr);
  EXPECT_EQ(env::get_string("NVMCP_TEST_KNOB", "fallback"), "fallback");
}

// ---------------------------------------------------------------------------
// NVMCP_TENANT_* resolvers (tenant/admission.hpp).

TEST(TenantEnv, MaxInflightConfiguredWinsOverEnv) {
  ScopedEnv e("NVMCP_TENANT_MAX_INFLIGHT", "8");
  EXPECT_EQ(tenant::resolve_max_inflight(3), 3);
  EXPECT_EQ(tenant::resolve_max_inflight(0), 8);
  EXPECT_EQ(tenant::resolve_max_inflight(-1), 8);
}

TEST(TenantEnv, MaxInflightDefaultAndClamp) {
  {
    ScopedEnv e("NVMCP_TENANT_MAX_INFLIGHT", nullptr);
    EXPECT_EQ(tenant::resolve_max_inflight(0), 2);
  }
  {
    ScopedEnv e("NVMCP_TENANT_MAX_INFLIGHT", "9999");
    EXPECT_EQ(tenant::resolve_max_inflight(0), 64);
  }
  {
    ScopedEnv e("NVMCP_TENANT_MAX_INFLIGHT", "0");
    EXPECT_EQ(tenant::resolve_max_inflight(0), 1);  // clamped up
  }
}

TEST(TenantEnv, AdmissionPolicyAliases) {
  using tenant::AdmissionPolicy;
  for (const char* v : {"queue", "wait", "block", "QUEUE", "Block"}) {
    ScopedEnv e("NVMCP_TENANT_ADMISSION", v);
    EXPECT_EQ(tenant::resolve_admission_policy(AdmissionPolicy::kReject),
              AdmissionPolicy::kQueue)
        << v;
  }
  for (const char* v : {"reject", "fail", "drop", "REJECT"}) {
    ScopedEnv e("NVMCP_TENANT_ADMISSION", v);
    EXPECT_EQ(tenant::resolve_admission_policy(AdmissionPolicy::kQueue),
              AdmissionPolicy::kReject)
        << v;
  }
  for (const char* v : {"", "maybe"}) {
    ScopedEnv e("NVMCP_TENANT_ADMISSION", v);
    EXPECT_EQ(tenant::resolve_admission_policy(AdmissionPolicy::kQueue),
              tenant::AdmissionPolicy::kQueue)
        << "fallback for '" << v << "'";
    EXPECT_EQ(tenant::resolve_admission_policy(AdmissionPolicy::kReject),
              tenant::AdmissionPolicy::kReject)
        << "fallback for '" << v << "'";
  }
  EXPECT_STREQ(to_string(AdmissionPolicy::kQueue), "queue");
  EXPECT_STREQ(to_string(AdmissionPolicy::kReject), "reject");
}

TEST(TenantEnv, QueueTimeoutConfiguredZeroIsValid) {
  ScopedEnv e("NVMCP_TENANT_QUEUE_TIMEOUT", "9.0");
  // configured >= 0 wins (0 = "never wait" is a real setting).
  EXPECT_DOUBLE_EQ(tenant::resolve_queue_timeout(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tenant::resolve_queue_timeout(2.5), 2.5);
  EXPECT_DOUBLE_EQ(tenant::resolve_queue_timeout(-1.0), 9.0);
}

TEST(TenantEnv, QueueTimeoutDefaultAndClamp) {
  {
    ScopedEnv e("NVMCP_TENANT_QUEUE_TIMEOUT", nullptr);
    EXPECT_DOUBLE_EQ(tenant::resolve_queue_timeout(-1.0), 5.0);
  }
  {
    ScopedEnv e("NVMCP_TENANT_QUEUE_TIMEOUT", "99999");
    EXPECT_DOUBLE_EQ(tenant::resolve_queue_timeout(-1.0), 3600.0);
  }
}

TEST(TenantEnv, PriorityBoostDefaultAndClamp) {
  {
    ScopedEnv e("NVMCP_TENANT_PRIO_BOOST", nullptr);
    EXPECT_DOUBLE_EQ(tenant::resolve_priority_boost(0.0), 4.0);
    EXPECT_DOUBLE_EQ(tenant::resolve_priority_boost(2.0), 2.0);
  }
  {
    ScopedEnv e("NVMCP_TENANT_PRIO_BOOST", "0.1");
    EXPECT_DOUBLE_EQ(tenant::resolve_priority_boost(0.0), 1.0);  // clamp lo
  }
  {
    ScopedEnv e("NVMCP_TENANT_PRIO_BOOST", "128");
    EXPECT_DOUBLE_EQ(tenant::resolve_priority_boost(0.0), 64.0);  // clamp hi
  }
}

// ---------------------------------------------------------------------------
// Existing resolve_* helpers: same contract, different knobs.

TEST(ResolveHelpers, RingDepthConfiguredWinsElseEnv) {
  ScopedEnv e("NVMCP_EPOCH_RING_DEPTH", "6");
  EXPECT_EQ(epoch::resolve_ring_depth(3), 3u);
  EXPECT_EQ(epoch::resolve_ring_depth(0), 6u);
  {
    ScopedEnv u("NVMCP_EPOCH_RING_DEPTH", nullptr);
    EXPECT_EQ(epoch::resolve_ring_depth(0), 1u);  // default: two-slot ring
  }
}

TEST(ResolveHelpers, GcWatermarkClamped) {
  {
    // configured >= 0 wins and is clamped to [0.05, 1.0]; negative defers
    // to the env knob.
    ScopedEnv e("NVMCP_EPOCH_GC_WATERMARK", nullptr);
    EXPECT_DOUBLE_EQ(epoch::resolve_gc_watermark(-1.0), 0.85);
    EXPECT_DOUBLE_EQ(epoch::resolve_gc_watermark(0.5), 0.5);
    EXPECT_DOUBLE_EQ(epoch::resolve_gc_watermark(0.0), 0.05);
  }
  {
    ScopedEnv e("NVMCP_EPOCH_GC_WATERMARK", "2.0");
    EXPECT_DOUBLE_EQ(epoch::resolve_gc_watermark(-1.0), 1.0);
  }
}

TEST(ResolveHelpers, TrackModeAliases) {
  using vmem::TrackMode;
  const struct {
    const char* value;
    TrackMode expect;
  } cases[] = {
      {"mprotect", TrackMode::kMprotect},
      {"chunk", TrackMode::kMprotect},
      {"page", TrackMode::kMprotectPage},
      {"SOFT", TrackMode::kSoftware},
      {"software", TrackMode::kSoftware},
      {"writelog", TrackMode::kWriteLog},
      {"write_log", TrackMode::kWriteLog},
      {"log", TrackMode::kWriteLog},
  };
  for (const auto& c : cases) {
    ScopedEnv e("NVMCP_TRACK_MODE", c.value);
    EXPECT_EQ(vmem::resolve_track_mode(TrackMode::kMprotect), c.expect)
        << c.value;
  }
  {
    ScopedEnv e("NVMCP_TRACK_MODE", "bogus");
    EXPECT_EQ(vmem::resolve_track_mode(TrackMode::kSoftware),
              TrackMode::kSoftware);
  }
}

}  // namespace
}  // namespace nvmcp
