// Environment reads: the common/env clamp contract the telemetry settings
// and the remote retry overrides go through, and a check that the tuning
// values come from the config structs alone.
//
// Every test owns its variables via ScopedEnv so the suite is order- and
// environment-independent.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/driver.hpp"
#include "common/env.hpp"
#include "core/codec_tuner.hpp"
#include "core/remote.hpp"
#include "tenant/arena.hpp"

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
}

TEST(Env, I64UnparsableReturnsDefault) {
  ScopedEnv e("NVMCP_TEST_KNOB", "banana");
  EXPECT_EQ(env::get_i64("NVMCP_TEST_KNOB", 7, 0, 100), 7);
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

TEST(Env, StringDefaultsWhenUnset) {
  ScopedEnv e("NVMCP_TEST_KNOB", nullptr);
  EXPECT_EQ(env::get_string("NVMCP_TEST_KNOB", "fallback"), "fallback");
}

// ---------------------------------------------------------------------------
// Tuning values come from the config structs alone: with every variable
// that once overrode one set to a non-default value, each object built
// from a default config still runs at its default.

NvmConfig small_device() {
  NvmConfig cfg;
  cfg.capacity = 16 * MiB;
  cfg.throttle = false;
  return cfg;
}

/// One device, its container and an allocator over it (a container's
/// chunk records have exactly one directory, so one allocator each).
struct Stack {
  explicit Stack(alloc::ChunkAllocator::Options opts = {})
      : dev(small_device()), cont(dev), allocator(cont, opts) {}
  NvmDevice dev;
  vmem::Container cont;
  alloc::ChunkAllocator allocator;
};

TEST(Env, RetiredTuningVariablesAreInert) {
  const ScopedEnv vars[] = {
      {"NVMCP_COPY_THREADS", "4"},
      {"NVMCP_BATCH_REARM", "0"},
      {"NVMCP_CODEC", "lz"},
      {"NVMCP_CODEC_ENTROPY_MAX", "5.0"},
      {"NVMCP_CODEC_MIN_GAIN", "2.0"},
      {"NVMCP_EPOCH_RING_DEPTH", "5"},
      {"NVMCP_EPOCH_GC_WATERMARK", "0.5"},
      {"NVMCP_EPOCH_GC_FLOOR", "3"},
      {"NVMCP_DIRTY_LOG_MERGE_GAP", "4096"},
      {"NVMCP_DIRTY_LOG_MAX_COVERAGE", "0.9"},
      {"NVMCP_DIRTY_LOG_CAPACITY", "64"},
      {"NVMCP_TRACK_MODE", "writelog"},
      {"NVMCP_TENANT_MAX_INFLIGHT", "7"},
      {"NVMCP_TENANT_ADMISSION", "reject"},
      {"NVMCP_TENANT_QUEUE_TIMEOUT", "9"},
      {"NVMCP_TENANT_PRIO_BOOST", "2"},
  };

  Stack s;
  EXPECT_EQ(s.allocator.ring_depth(), 1u);
  core::CheckpointManager mgr(s.allocator, core::CheckpointConfig{});
  EXPECT_EQ(mgr.copy_threads(), 1u);
  EXPECT_EQ(mgr.epoch_gc(), nullptr);  // depth 1 has nothing to reclaim

  net::Interconnect link;
  net::RemoteStore store(small_device());
  net::RemoteMemory remote(link, store);
  const core::RemoteCheckpointer helper({&mgr}, remote, core::RemoteConfig{});
  EXPECT_EQ(helper.codec_mode(0), core::CodecMode::kRaw);

  const core::CodecTuner tuner;
  EXPECT_DOUBLE_EQ(tuner.options().entropy_max, 7.2);
  EXPECT_DOUBLE_EQ(tuner.options().min_gain, 1.05);

  {
    alloc::ChunkAllocator::Options deep;
    deep.ring_depth = 4;
    Stack d(deep);
    core::CheckpointManager m4(d.allocator, core::CheckpointConfig{});
    ASSERT_NE(m4.epoch_gc(), nullptr);
    EXPECT_DOUBLE_EQ(m4.epoch_gc()->watermark(), 0.85);
    EXPECT_EQ(m4.epoch_gc()->floor(), 2u);
  }

  {
    // Two 64 B stores 1 KiB apart stay two ranges (512 B merge gap), and
    // 10 KiB of a 16 KiB chunk is past half coverage: a whole copy.
    alloc::ChunkAllocator::Options logged;
    logged.track_mode = vmem::TrackMode::kWriteLog;
    logged.ring_depth = 1;  // epochs 3 and 4 reuse the slots of 1 and 2
    Stack l(logged);
    alloc::Chunk* c = l.allocator.nvalloc("logged", 16 * KiB, true);
    l.allocator.checkpoint_chunk(*c, 1);  // both slots start whole
    l.allocator.checkpoint_chunk(*c, 2);
    c->log_write(0, 64);
    c->log_write(1088, 64);
    EXPECT_EQ(l.allocator.checkpoint_chunk(*c, 3).bytes, 128u);
    c->log_write(0, 10 * KiB);
    EXPECT_EQ(l.allocator.checkpoint_chunk(*c, 4).bytes, c->size());
  }

  tenant::TenantArena::Options aopts;
  aopts.device = small_device();
  tenant::TenantArena arena(aopts);
  EXPECT_EQ(arena.ring_depth(), 1u);
  EXPECT_EQ(arena.admission().options().max_inflight, 2);
  EXPECT_EQ(arena.admission().options().policy,
            tenant::AdmissionPolicy::kQueue);
  EXPECT_DOUBLE_EQ(arena.admission().options().queue_timeout, 5.0);
  EXPECT_DOUBLE_EQ(arena.scheduler().priority_boost(), 4.0);

  // The driver tracks with chunk faults (kMprotect) unless told otherwise.
  apps::DriverConfig dcfg;
  dcfg.spec = apps::WorkloadSpec::gtc();
  dcfg.spec.iters_per_checkpoint = 1;
  dcfg.ranks = 1;
  dcfg.iterations = 2;
  dcfg.size_scale = 1.0 / 512;
  dcfg.time_scale = 1.0 / 256;
  dcfg.ckpt.local_policy = core::PrecopyPolicy::kNone;
  EXPECT_GT(apps::run_workload(dcfg).protection_faults, 0u);
}

}  // namespace
}  // namespace nvmcp
