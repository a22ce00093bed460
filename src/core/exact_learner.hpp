// The precise generalization algorithm (paper §3.1).
//
// Starting from D0 = {d_bot}, each period is processed message by message:
// every hypothesis branches over all timing-feasible, not-yet-assumed
// sender/receiver pairs of the message, generalizing minimally; at the end
// of the period the post-processing weakens unmet requirements, drops
// assumptions, unifies duplicates, and deletes redundant hypotheses.
//
// The set of hypotheses can grow exponentially in the number of messages
// per period (the underlying problem is NP-hard, Theorem 1); identical
// (matrix, assumption-set) states reached through different branch orders
// are unified eagerly to keep realistic traces tractable — keyed on
// Hypothesis::key through a KeySet, as in the bounded learner, so no
// duplicate child is ever copied.  `max_frontier` is a hard safety valve:
// the first new child past it throws bbmg::Error rather than thrashing.
#pragma once

#include "core/learn_result.hpp"
#include "trace/trace.hpp"

namespace bbmg {

struct ExactConfig {
  /// Abort (throw) if the mid-period hypothesis set exceeds this size.
  std::size_t max_frontier = 4'000'000;
};

/// Run the exact learner over the whole trace.  Throws bbmg::Error if the
/// hypothesis set becomes empty (the trace violates the MoC assumptions or
/// the generalization language cannot express it) or if max_frontier is
/// exceeded.
[[nodiscard]] LearnResult learn_exact(const Trace& trace,
                                      const ExactConfig& config = {});

}  // namespace bbmg
