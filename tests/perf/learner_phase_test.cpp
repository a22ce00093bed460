// Characterization of the learner's phase profile: feeding a seeded
// scenario through OnlineLearner with learner_profiler() at stride 1 must
// attribute every profiled nanosecond and every allocation to exactly one
// phase, count one branch call per message and one lub_merge call per
// merge, and register the same metric names the scrape surfaces (and the
// monitor's dashboards) key on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/learner_metrics.hpp"
#include "core/online_learner.hpp"
#include "gen/scenarios.hpp"
#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"

namespace bbmg {
namespace {

struct PhaseTotals {
  std::vector<std::uint64_t> ns, calls, alloc_bytes, allocs;
  std::uint64_t total_ns{0};
  std::uint64_t units{0};
};

PhaseTotals read_totals(const obs::PhaseProfiler& p) {
  PhaseTotals t;
  for (std::size_t i = 0; i < p.num_phases(); ++i) {
    t.ns.push_back(p.phase_ns(i));
    t.calls.push_back(p.phase_calls(i));
    t.alloc_bytes.push_back(p.phase_alloc_bytes(i));
    t.allocs.push_back(p.phase_allocs(i));
  }
  t.total_ns = p.total_ns();
  t.units = p.units();
  return t;
}

/// Stride 1 for the lifetime of the guard (the profiler is process-wide).
class StrideOne {
 public:
  explicit StrideOne(obs::PhaseProfiler& p) : p_(p), saved_(p.stride()) {
    p_.set_stride(1);
  }
  ~StrideOne() { p_.set_stride(saved_); }
  StrideOne(const StrideOne&) = delete;
  StrideOne& operator=(const StrideOne&) = delete;

 private:
  obs::PhaseProfiler& p_;
  std::uint32_t saved_;
};

Trace scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_periods = 24;
  return scenario_trace(cfg);
}

class LearnerPhaseProfile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LearnerPhaseProfile, PhasesAccountForEveryNanosecondCallAndAlloc) {
  using P = LearnerPhase;
  const auto idx = [](P phase) { return static_cast<std::size_t>(phase); };

  const Trace trace = scenario(/*seed=*/29);
  OnlineConfig config;
  config.bound = GetParam();
  OnlineLearner learner(trace.num_tasks(), config);
  obs::PhaseProfiler& profiler = learner_profiler();
  const StrideOne stride(profiler);

  // The first period warms the process-wide statics (metric handles, the
  // thread's counter group) so their one-time allocations stay outside the
  // measured window.
  learner.observe_period(trace.periods().front());

  const PhaseTotals before = read_totals(profiler);
  const LearnStats stats0 = learner.stats();
  obs::AllocCounters thread_alloc{};
  for (std::size_t i = 1; i < trace.periods().size(); ++i) {
    const obs::AllocCounters a0 = obs::thread_alloc_counters();
    learner.observe_period(trace.periods()[i]);
    const obs::AllocCounters d =
        obs::alloc_delta(a0, obs::thread_alloc_counters());
    thread_alloc.bytes += d.bytes;
    thread_alloc.count += d.count;
  }
  const PhaseTotals after = read_totals(profiler);
  const LearnStats& stats1 = learner.stats();
  const std::uint64_t periods = trace.periods().size() - 1;

  std::uint64_t named_ns = 0;
  std::uint64_t named_bytes = 0;
  std::uint64_t named_allocs = 0;
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    named_ns += after.ns[i] - before.ns[i];
    named_bytes += after.alloc_bytes[i] - before.alloc_bytes[i];
    named_allocs += after.allocs[i] - before.allocs[i];
  }
  EXPECT_EQ(after.units - before.units, periods);
  EXPECT_GT(after.total_ns, before.total_ns);
  EXPECT_EQ(named_ns, after.total_ns - before.total_ns);
  EXPECT_DOUBLE_EQ(profiler.attributed_fraction(), 1.0);

  EXPECT_EQ(after.calls[idx(P::Branch)] - before.calls[idx(P::Branch)],
            stats1.messages_processed - stats0.messages_processed);
  EXPECT_EQ(after.calls[idx(P::LubMerge)] - before.calls[idx(P::LubMerge)],
            stats1.merges - stats0.merges);
  if (config.bound == 1) {
    EXPECT_GT(stats1.merges, stats0.merges);
  }
  for (const P sequential : {P::Enumerate, P::PostProcess, P::History}) {
    EXPECT_EQ(after.calls[idx(sequential)] - before.calls[idx(sequential)],
              periods);
  }

  if (obs::kAllocTrackEnabled) {
    EXPECT_GT(thread_alloc.count, 0u);
    EXPECT_EQ(named_bytes, thread_alloc.bytes);
    EXPECT_EQ(named_allocs, thread_alloc.count);
  } else {
    EXPECT_EQ(named_bytes, 0u);
    EXPECT_EQ(named_allocs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, LearnerPhaseProfile,
                         ::testing::Values(std::size_t{1}, std::size_t{16}));

TEST(LearnerPhaseNames, RegisteredNamesArePinned) {
  (void)learner_profiler();

  std::set<std::string> expected = {"bbmg_learner_profiled_units_total",
                                    "bbmg_learner_profiled_ns_total"};
  const char* const phases[] = {"enumerate", "branch", "lub_merge",
                                "post_process", "history"};
  const char* const families[] = {
      "bbmg_learner_phase_ns_total",
      "bbmg_learner_phase_calls_total",
      "bbmg_learner_phase_alloc_bytes_total",
      "bbmg_learner_phase_allocs_total",
      "bbmg_perf_learner_cycles_total",
      "bbmg_perf_learner_instructions_total",
      "bbmg_perf_learner_cache_misses_total",
      "bbmg_perf_learner_branch_misses_total",
  };
  for (const char* family : families) {
    for (const char* phase : phases) {
      expected.insert(std::string(family) + "{phase=\"" + phase + "\"}");
    }
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  std::set<std::string> registered;
  for (const obs::CounterSample& c : snap.counters) {
    for (const char* prefix : {"bbmg_learner_phase_", "bbmg_learner_profiled_",
                               "bbmg_perf_learner_"}) {
      if (c.name.rfind(prefix, 0) == 0) registered.insert(c.name);
    }
  }
  EXPECT_EQ(registered, expected);
}

}  // namespace
}  // namespace bbmg
