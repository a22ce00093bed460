#include "core/heuristic_learner.hpp"

#include "common/stopwatch.hpp"
#include "core/online_learner.hpp"

namespace bbmg {

// The batch heuristic is the streaming learner fed with the whole trace;
// all of §3.2's machinery lives in core/online_learner.cpp.
LearnResult learn_heuristic(const Trace& trace, const HeuristicConfig& config) {
  Stopwatch watch;
  OnlineConfig online;
  online.bound = config.bound;
  OnlineLearner learner(trace.num_tasks(), online);
  std::vector<std::size_t> frontier_after_period;
  frontier_after_period.reserve(trace.num_periods());
  for (const auto& period : trace.periods()) {
    learner.observe_period(period);
    frontier_after_period.push_back(learner.hypotheses().size());
  }
  LearnResult result = learner.snapshot();
  result.stats.frontier_after_period = std::move(frontier_after_period);
  result.stats.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace bbmg
