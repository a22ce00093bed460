#include "core/exact_learner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/history.hpp"
#include "core/hypothesis.hpp"
#include "core/key_set.hpp"
#include "core/learner_metrics.hpp"
#include "core/post_process.hpp"
#include "obs/span.hpp"

namespace bbmg {

LearnResult learn_exact(const Trace& trace, const ExactConfig& config) {
  const std::size_t n = trace.num_tasks();
  BBMG_REQUIRE(n >= 1, "trace has no tasks");

  Stopwatch watch;
  LearnResult result;
  LearnStats& stats = result.stats;

  std::vector<Hypothesis> frontier;
  frontier.emplace_back(n);  // D0 = { d_bot }
  stats.peak_hypotheses = 1;

  CoExecutionHistory history(n);

  LearnerMetrics& metrics = LearnerMetrics::get();
  std::size_t period_no = 0;
  for (const auto& period : trace.periods()) {
    ++period_no;
    obs::Span span(&metrics.period_latency_us, "learner.exact_period");
    const std::uint64_t created0 = stats.hypotheses_created;
    const PeriodCandidates pc(period, n);

    // As in the bounded learner, the message loop works on keyed members:
    // a child's key is O(1) from its parent, one KeySet probe finds an
    // equal earlier child, and only a new child is copied.
    std::vector<KeyedHypothesis> front;
    front.reserve(frontier.size());
    for (Hypothesis& h : frontier) front.emplace_back(std::move(h));
    KeySet index;
    for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
      ++stats.messages_processed;
      const auto& cands = pc.candidates(msg);

      std::vector<KeyedHypothesis> next;
      next.reserve(front.size());
      index.clear();

      for (const KeyedHypothesis& parent : front) {
        for (const CandidatePair& p : cands) {
          if (parent.h.pair_used(p)) continue;
          ++stats.hypotheses_created;
          const Assumption a = parent.h.plan_assume(p, history);
          const ChildKey ck = child_key(parent, a);
          const auto same = [&](std::uint32_t s) {
            return next[s].weight == ck.weight &&
                   next[s].h.equals_assumed(parent.h, a);
          };
          if (index.find(ck.key, same) != KeySet::kNone) continue;
          if (next.size() == config.max_frontier) {
            raise("exact learner: hypothesis set exceeded max_frontier (" +
                  std::to_string(config.max_frontier) + ") at period " +
                  std::to_string(period_no) +
                  " — use the heuristic learner for this trace");
          }
          index.insert(ck.key, static_cast<std::uint32_t>(next.size()));
          KeyedHypothesis& child = next.emplace_back(parent);
          child.h.apply(a);
          child.weight = ck.weight;
          child.key = ck.key;
        }
      }

      if (next.empty()) {
        raise("exact learner: hypothesis set became empty at period " +
              std::to_string(period_no) + ", message " + std::to_string(msg) +
              " — the trace violates the MoC assumptions or the "
              "generalization language cannot express it");
      }
      stats.peak_hypotheses = std::max(stats.peak_hypotheses, next.size());
      front = std::move(next);
    }
    frontier.clear();
    for (KeyedHypothesis& h : front) frontier.push_back(std::move(h.h));

    post_process_period(frontier, pc);
    ++stats.periods_processed;
    stats.frontier_after_period.push_back(frontier.size());
    history.record_period(pc);

    metrics.periods.inc();
    metrics.messages.inc(pc.num_messages());
    metrics.branched.inc(stats.hypotheses_created - created0);
    metrics.version_space_peak.set_max(
        static_cast<std::int64_t>(stats.peak_hypotheses));
  }

  result.hypotheses.reserve(frontier.size());
  for (auto& h : frontier) result.hypotheses.push_back(std::move(h.d));
  std::sort(result.hypotheses.begin(), result.hypotheses.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() < b.weight();
            });
  stats.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace bbmg
