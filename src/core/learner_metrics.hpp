// Process-wide learner metrics (DESIGN.md "Observability"): period and
// message throughput, hypothesis branching/pruning totals, the version-
// space peak high-water mark, and the per-period latency histogram.
// Resolved once behind a function-local static (references are cached by
// the instrumented code); aggregates across every learner in the process.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace bbmg {

/// Phase indices for the learner's sampling self-profiler (the enum order
/// is the phase_names order in learner_profiler()).
enum class LearnerPhase : std::size_t {
  /// Candidate sender/receiver enumeration (PeriodCandidates build).
  Enumerate = 0,
  /// Version-space expansion: per-message hypothesis branching.
  Branch = 1,
  /// Lattice LUB + bound pruning (BoundedList merge_two_least).
  LubMerge = 2,
  /// Version-space update: frontier post-processing after the period.
  PostProcess = 3,
  /// Period-history recording.
  History = 4,
};

/// Process-wide sampling profiler over the online learner's period loop
/// (`bbmg_learner_phase_ns_total{phase=...}` et al.).  Stride defaults to
/// kDefaultProfilerStride; bench_obs sets 1 for exact attribution.  Every
/// scrape surface carries the hardware counters
/// (`bbmg_perf_learner_*_total{phase=...}`: IPC and miss rates per phase)
/// and the per-phase heap churn alongside the wall time.
inline obs::PhaseProfiler& learner_profiler() {
  static obs::PhaseProfiler profiler(
      "bbmg_learner", "bbmg_perf_learner",
      {"enumerate", "branch", "lub_merge", "post_process", "history"});
  return profiler;
}

struct LearnerMetrics {
  /// Periods fed to any learner (online, exact, heuristic).
  obs::Counter& periods;
  /// Messages processed across all periods.
  obs::Counter& messages;
  /// Hypotheses branched (children created during candidate expansion).
  obs::Counter& branched;
  /// Hypotheses pruned by the bounded list's merges.
  obs::Counter& pruned;
  /// Messages no hypothesis could explain (bounded learner keeps going).
  obs::Counter& unexplained;
  /// Peak live-hypothesis count ever observed (set_max high-water mark).
  obs::Gauge& version_space_peak;
  /// Wall time to learn one period.
  obs::Histogram& period_latency_us;

  static LearnerMetrics& get() {
    static LearnerMetrics m = make();
    return m;
  }

 private:
  static LearnerMetrics make() {
    auto& r = obs::MetricsRegistry::instance();
    return LearnerMetrics{
        r.counter("bbmg_learner_periods_total"),
        r.counter("bbmg_learner_messages_total"),
        r.counter("bbmg_learner_hypotheses_branched_total"),
        r.counter("bbmg_learner_hypotheses_pruned_total"),
        r.counter("bbmg_learner_unexplained_messages_total"),
        r.gauge("bbmg_learner_version_space_peak"),
        r.histogram("bbmg_learner_period_latency_us",
                    obs::default_latency_buckets_us()),
    };
  }
};

}  // namespace bbmg
