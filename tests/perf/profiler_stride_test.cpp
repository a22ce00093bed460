// PhaseProfiler stride-scaling exactness: at stride S, each sampled unit's
// record stands in for the S-1 unsampled units around it, so after N = K*S
// units the registered counters equal the stride-1 truth exactly — calls
// N, nanoseconds N*ns_per_unit.  (The regression this pins: earlier
// versions recorded only the raw sampled counts, undercounting every rate
// by the stride.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/profiler.hpp"

namespace bbmg::obs {
namespace {

/// A phase cost with only the wall-time dimension set.
PhaseCost wall(std::uint64_t ns) {
  PhaseCost cost;
  cost.ns = ns;
  return cost;
}

TEST(ProfilerStride, CountsAreExactAtStrides1_16_256) {
  constexpr std::uint64_t kNsPerUnit = 1000;
  constexpr std::uint64_t kUnits = 1024;  // divisible by every stride below
  for (const std::uint32_t stride : {1u, 16u, 256u}) {
    // Prefixes are registry-global, so each profiler needs its own.
    const std::string prefix = "test_stride_" + std::to_string(stride);
    PhaseProfiler profiler(prefix, prefix + "_hw", {"alpha", "beta"});
    profiler.set_stride(stride);
    ASSERT_EQ(profiler.stride(), stride);

    std::uint64_t sampled = 0;
    for (std::uint64_t i = 0; i < kUnits; ++i) {
      if (!profiler.sample()) continue;
      ++sampled;
      profiler.record(0, wall(kNsPerUnit));
      profiler.record(1, wall(3 * kNsPerUnit), /*calls=*/2);
      profiler.record_unit(4 * kNsPerUnit);
    }
    EXPECT_EQ(sampled, kUnits / stride) << "stride " << stride;

    // Stride-scaled counters reproduce the stride-1 totals exactly.
    EXPECT_EQ(profiler.phase_ns(0), kUnits * kNsPerUnit) << "stride " << stride;
    EXPECT_EQ(profiler.phase_calls(0), kUnits) << "stride " << stride;
    EXPECT_EQ(profiler.phase_ns(1), kUnits * 3 * kNsPerUnit);
    EXPECT_EQ(profiler.phase_calls(1), kUnits * 2);
    EXPECT_EQ(profiler.units(), kUnits);
    EXPECT_EQ(profiler.total_ns(), kUnits * 4 * kNsPerUnit);
    EXPECT_DOUBLE_EQ(profiler.attributed_fraction(), 1.0);
  }
}

TEST(ProfilerStride, RegisteredCountersCarryTheScaledTotals) {
  PhaseProfiler profiler("test_stride_metrics", "test_stride_metrics_hw",
                         {"only"});
  profiler.set_stride(8);
  for (int i = 0; i < 64; ++i) {
    if (profiler.sample()) {
      profiler.record(0, wall(100));
      profiler.record_unit(100);
    }
  }
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter_value(
                "test_stride_metrics_phase_ns_total{phase=\"only\"}"),
            6400u);
  EXPECT_EQ(snap.counter_value(
                "test_stride_metrics_phase_calls_total{phase=\"only\"}"),
            64u);
  EXPECT_EQ(snap.counter_value("test_stride_metrics_profiled_units_total"),
            64u);
}

TEST(ProfilerStride, HwAndAllocDimensionsScaleIdentically) {
  PhaseProfiler profiler("test_stride_dims", "test_stride_dims_hw", {"p"});
  profiler.set_stride(16);

  PhaseCost cost;
  cost.hw.cycles = 10;
  cost.hw.instructions = 30;
  cost.alloc_bytes = 128;
  cost.allocs = 4;
  for (int i = 0; i < 32; ++i) {
    if (profiler.sample()) profiler.record(0, cost);
  }
  // 2 sampled units x scale 16.
  EXPECT_EQ(profiler.phase_hw(0).cycles, 320u);
  EXPECT_EQ(profiler.phase_hw(0).instructions, 960u);
  EXPECT_EQ(profiler.phase_alloc_bytes(0), 4096u);
  EXPECT_EQ(profiler.phase_allocs(0), 128u);
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter_value("test_stride_dims_hw_cycles_total{phase=\"p\"}"),
            320u);
}

}  // namespace
}  // namespace bbmg::obs
