// PhaseProfiler: sampling cadence, counter registration, the attribution
// math that bench_obs and the health surfaces rely on, the Unit's stamps
// and laps, and split_nested() — the one rule that divides a lap between
// its phase and a region nested inside it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace bbmg::obs {
namespace {

/// A phase cost with only the wall-time dimension set.
PhaseCost wall(std::uint64_t ns) {
  PhaseCost cost;
  cost.ns = ns;
  return cost;
}

TEST(PhaseProfiler, SamplesOneInStride) {
  PhaseProfiler prof("bbmg_test_stride", "bbmg_test_stride_hw", {"a"});
  prof.set_stride(4);
  std::uint64_t sampled = 0;
  for (int i = 0; i < 400; ++i) {
    if (prof.sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 100u);
}

TEST(PhaseProfiler, SetStrideRejectsZero) {
  PhaseProfiler prof("bbmg_test_zero", "bbmg_test_zero_hw", {"a"});
  prof.set_stride(3);
  EXPECT_THROW(prof.set_stride(0), Error);
  EXPECT_EQ(prof.stride(), 3u);
}

TEST(PhaseProfiler, AttributionMathAndRegisteredCounters) {
  PhaseProfiler prof("bbmg_test_attr", "bbmg_test_attr_hw",
                     {"parse", "merge"});
  prof.set_stride(1);

  // Two sampled units: phases cover 900 of 1000 ns total.
  prof.record(0, wall(300), 2);
  prof.record(1, wall(150));
  prof.record_unit(500);
  prof.record(0, wall(250));
  prof.record(1, wall(200));
  prof.record_unit(500);

  EXPECT_EQ(prof.num_phases(), 2u);
  EXPECT_EQ(prof.phase_name(0), "parse");
  EXPECT_EQ(prof.phase_ns(0), 550u);
  EXPECT_EQ(prof.phase_calls(0), 3u);
  EXPECT_EQ(prof.phase_ns(1), 350u);
  EXPECT_EQ(prof.units(), 2u);
  EXPECT_EQ(prof.total_ns(), 1000u);
  EXPECT_DOUBLE_EQ(prof.attributed_fraction(), 0.9);

  // The same numbers are visible through the process-wide registry, which
  // is what the scraper and exposition read.
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(
      reg.counter("bbmg_test_attr_phase_ns_total{phase=\"parse\"}").value(),
      550u);
  EXPECT_EQ(reg.counter("bbmg_test_attr_profiled_ns_total").value(), 1000u);
}

TEST(PhaseProfiler, ZeroSamplesGivesZeroFraction) {
  PhaseProfiler prof("bbmg_test_empty", "bbmg_test_empty_hw", {"a"});
  EXPECT_DOUBLE_EQ(prof.attributed_fraction(), 0.0);
}

TEST(PhaseProfiler, UnitLapsTileTheUnitAndCarveOutNestedRegions) {
  PhaseProfiler prof("bbmg_test_unit", "bbmg_test_unit_hw",
                     {"outer", "nested", "tail"});
  prof.set_stride(1);
  for (int i = 0; i < 3; ++i) {
    PhaseProfiler::Unit unit(prof);
    PhaseProfiler::Nested* nested = unit.nest(1);
    for (int j = 0; j < 2; ++j) {
      const PhaseProfiler::Scope scope(nested);
    }
    unit.lap(0, /*calls=*/7);
    unit.lap(2);
  }
  EXPECT_EQ(prof.units(), 3u);
  EXPECT_EQ(prof.stamps(), 9u);  // the opening stamp plus one per lap
  EXPECT_EQ(prof.phase_calls(0), 21u);
  EXPECT_EQ(prof.phase_calls(1), 6u);  // one per nested scope
  EXPECT_EQ(prof.phase_calls(2), 3u);
  EXPECT_DOUBLE_EQ(prof.attributed_fraction(), 1.0);
}

PhaseCost lap_cost() {
  PhaseCost lap;
  lap.ns = 1000;
  lap.hw = PerfDelta{4000, 9000, 40, 8};
  lap.alloc_bytes = 512;
  lap.allocs = 6;
  return lap;
}

void expect_sums_to_lap(const NestedSplit& s, const PhaseCost& lap) {
  EXPECT_EQ(s.outer.ns + s.nested.ns, lap.ns);
  EXPECT_EQ(s.outer.alloc_bytes + s.nested.alloc_bytes, lap.alloc_bytes);
  EXPECT_EQ(s.outer.allocs + s.nested.allocs, lap.allocs);
  EXPECT_EQ(s.outer.hw.cycles + s.nested.hw.cycles, lap.hw.cycles);
  EXPECT_EQ(s.outer.hw.instructions + s.nested.hw.instructions,
            lap.hw.instructions);
  EXPECT_EQ(s.outer.hw.cache_misses + s.nested.hw.cache_misses,
            lap.hw.cache_misses);
  EXPECT_EQ(s.outer.hw.branch_misses + s.nested.hw.branch_misses,
            lap.hw.branch_misses);
}

TEST(PhaseSplit, WallAndAllocsMoveExactlyHwFollowsTheWallShare) {
  const PhaseCost lap = lap_cost();
  PhaseCost nested;
  nested.ns = 250;  // a quarter of the lap
  nested.alloc_bytes = 100;
  nested.allocs = 2;
  nested.hw.cycles = 123456;  // ignored: merges never read the PMU
  const NestedSplit s = split_nested(lap, nested);
  expect_sums_to_lap(s, lap);
  EXPECT_EQ(s.nested.ns, 250u);
  EXPECT_EQ(s.nested.alloc_bytes, 100u);
  EXPECT_EQ(s.nested.allocs, 2u);
  EXPECT_EQ(s.nested.hw.cycles, 1000u);
  EXPECT_EQ(s.nested.hw.instructions, 2250u);
  EXPECT_EQ(s.nested.hw.cache_misses, 10u);
  EXPECT_EQ(s.nested.hw.branch_misses, 2u);
  EXPECT_EQ(s.outer.ns, 750u);
  EXPECT_EQ(s.outer.hw.cycles, 3000u);
}

TEST(PhaseSplit, NestedCostIsClampedToTheLap) {
  const PhaseCost lap = lap_cost();
  PhaseCost nested;
  nested.ns = 5000;
  nested.alloc_bytes = 9999;
  nested.allocs = 99;
  const NestedSplit s = split_nested(lap, nested);
  expect_sums_to_lap(s, lap);
  EXPECT_EQ(s.nested.ns, lap.ns);
  EXPECT_EQ(s.nested.hw.cycles, lap.hw.cycles);
  EXPECT_EQ(s.nested.alloc_bytes, lap.alloc_bytes);
  EXPECT_EQ(s.outer.ns, 0u);
  EXPECT_EQ(s.outer.allocs, 0u);
}

TEST(PhaseSplit, ZeroLengthLapKeepsEverythingOutside) {
  PhaseCost lap = lap_cost();
  lap.ns = 0;
  PhaseCost nested;
  nested.ns = 40;
  const NestedSplit s = split_nested(lap, nested);
  expect_sums_to_lap(s, lap);
  EXPECT_EQ(s.nested.ns, 0u);
  EXPECT_FALSE(s.nested.hw.any());
  EXPECT_EQ(s.outer.hw.cycles, lap.hw.cycles);

  // No nested region at all: the lap is the outer phase's alone.
  const NestedSplit none = split_nested(lap_cost(), PhaseCost{});
  expect_sums_to_lap(none, lap_cost());
  EXPECT_EQ(none.nested.ns, 0u);
  EXPECT_FALSE(none.nested.hw.any());
}

}  // namespace
}  // namespace bbmg::obs
