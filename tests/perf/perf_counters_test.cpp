// PerfCounterGroup fallback paths: a denied or absent PMU must degrade to
// supported() == false with zero-reading samples — never an error — because
// CI containers and VMs are exactly where the test suite runs.  Also pins
// the delta arithmetic and (for the TSan build) profiler units timing
// phases — counter-group reads included — on several threads while another
// thread scrapes the registry.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#ifdef __linux__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/profiler.hpp"

namespace bbmg::obs {
namespace {

TEST(PerfFallback, ParanoidDenialReportsUnsupported) {
  // A kernel with perf_event_paranoid >= 2 refuses the leader with EACCES.
  const PerfCounterGroup group([](PerfEvent, int) { return -EACCES; });
  EXPECT_FALSE(group.supported());
  EXPECT_EQ(group.num_open(), 0u);
  EXPECT_NE(group.unsupported_reason().find("perf_event_paranoid"),
            std::string::npos)
      << group.unsupported_reason();

  const PerfSample s = group.read();
  EXPECT_EQ(s.cycles(), 0u);
  EXPECT_EQ(s.instructions(), 0u);
  EXPECT_EQ(s.cache_misses(), 0u);
  EXPECT_EQ(s.branch_misses(), 0u);
}

TEST(PerfFallback, MissingPmuReportsUnsupported) {
  const PerfCounterGroup group([](PerfEvent, int) { return -ENOENT; });
  EXPECT_FALSE(group.supported());
  EXPECT_NE(group.unsupported_reason().find("PMU"), std::string::npos)
      << group.unsupported_reason();
  EXPECT_FALSE(group.read().cycles());
}

TEST(PerfFallback, EnosysReportsUnsupported) {
  // The non-Linux default opener path.
  const PerfCounterGroup group([](PerfEvent, int) { return -ENOSYS; });
  EXPECT_FALSE(group.supported());
  EXPECT_FALSE(group.unsupported_reason().empty());
}

#ifdef __linux__
TEST(PerfFallback, PartialPmuStaysSupportedWithAbsentSiblings) {
  // Leader opens, cache-miss sibling is absent (common in VMs).  The fds
  // handed out are real (so the destructor's close() is safe); reads on
  // /dev/null fail the group-format check and therefore report zero, which
  // is also the documented contract for a failing read.
  int opened = 0;
  const PerfCounterGroup group([&opened](PerfEvent ev, int) {
    if (ev == PerfEvent::CacheMisses) return -ENOENT;
    ++opened;
    return ::open("/dev/null", O_RDONLY);
  });
  EXPECT_TRUE(group.supported());
  EXPECT_EQ(group.num_open(), 3u);
  EXPECT_EQ(opened, 3);
  EXPECT_TRUE(group.unsupported_reason().empty());

  const PerfSample s = group.read();
  EXPECT_EQ(s.cycles(), 0u);
  EXPECT_EQ(s.cache_misses(), 0u);
}
#endif

TEST(PerfFallback, ThisThreadIsConsistentAndPublishesGauge) {
  PerfCounterGroup& a = PerfCounterGroup::this_thread();
  PerfCounterGroup& b = PerfCounterGroup::this_thread();
  EXPECT_EQ(&a, &b);
  // supported() and reason agree: exactly one of them is "set".
  EXPECT_EQ(a.supported(), a.unsupported_reason().empty());
  if (!a.supported()) {
    EXPECT_EQ(a.num_open(), 0u);
  }

  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const GaugeSample* g = snap.find_gauge("bbmg_perf_hw_supported");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, a.supported() ? 1 : 0);
}

TEST(PerfDeltaMath, SubtractsAndSaturates) {
  PerfSample begin;
  begin.value[0] = 100;  // cycles
  begin.value[1] = 250;  // instructions
  begin.value[2] = 7;    // cache misses
  begin.value[3] = 90;   // branch misses
  PerfSample end;
  end.value[0] = 300;
  end.value[1] = 650;
  end.value[2] = 7;
  end.value[3] = 40;  // counter went backwards (reset): saturate, not wrap

  const PerfDelta d = perf_delta(begin, end);
  EXPECT_EQ(d.cycles, 200u);
  EXPECT_EQ(d.instructions, 400u);
  EXPECT_EQ(d.cache_misses, 0u);
  EXPECT_EQ(d.branch_misses, 0u);
  EXPECT_TRUE(d.any());
  EXPECT_DOUBLE_EQ(d.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(d.misses_per_kilo_instr(), 0.0);

  const PerfDelta zero = perf_delta(end, end);
  EXPECT_FALSE(zero.any());
  EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
}

TEST(PerfConcurrency, SpansAndCounterReadsRaceCleanly) {
  // The TSan target: writer threads time profiler units on one shared
  // profiler — each lap reads the thread's counter group and allocation
  // totals, each nested scope its own clock pair — while a reader scrapes
  // the registry those units write into.
  PhaseProfiler profiler("test_perf_race", "test_perf_race_hw",
                         {"outer", "nested", "tail"});
  profiler.set_stride(1);
  constexpr int kThreads = 3;
  constexpr int kUnits = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kUnits; ++i) {
        PhaseProfiler::Unit unit(profiler);
        PhaseProfiler::Nested* nested = unit.nest(1);
        {
          const PhaseProfiler::Scope scope(nested);
          std::vector<int> churn(16, i);
          (void)churn;
        }
        unit.lap(0);
        unit.lap(2);
      }
    });
  }
  std::thread reader([&] {
    std::uint64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
      seen += snap.counter_value("test_perf_race_profiled_units_total");
      std::this_thread::yield();
    }
    (void)seen;
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  constexpr std::uint64_t kTotal = kThreads * kUnits;
  EXPECT_EQ(profiler.units(), kTotal);
  EXPECT_EQ(profiler.phase_calls(0), kTotal);
  EXPECT_EQ(profiler.phase_calls(1), kTotal);
  EXPECT_EQ(profiler.phase_calls(2), kTotal);
  EXPECT_EQ(profiler.stamps(), 3 * kTotal);
  EXPECT_DOUBLE_EQ(profiler.attributed_fraction(), 1.0);
}

}  // namespace
}  // namespace bbmg::obs
