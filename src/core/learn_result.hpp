// Result and instrumentation types shared by both learners.
#pragma once

#include <cstdint>
#include <vector>

#include "lattice/dependency_matrix.hpp"

namespace bbmg {

struct LearnStats {
  std::size_t periods_processed{0};
  std::size_t messages_processed{0};
  /// Largest hypothesis-set size observed at any point during learning
  /// (mid-period; this is what explodes for the exact algorithm).
  std::size_t peak_hypotheses{0};
  /// Total child hypotheses materialized.
  std::uint64_t hypotheses_created{0};
  /// Heuristic only: number of least-upper-bound merges forced by the bound.
  std::uint64_t merges{0};
  /// Messages for which a hypothesis had no unused candidate pair and was
  /// kept unchanged instead of branching (heuristic fallback; see DESIGN.md).
  std::uint64_t unexplained_messages{0};
  /// Hypothesis-set size after post-processing of each period.
  std::vector<std::size_t> frontier_after_period;
  /// Streaming only: periods handed to observe_quarantined_period (corrupt
  /// input skipped by the robustness layer; not counted in
  /// periods_processed).
  std::uint64_t quarantined_periods{0};
  double wall_seconds{0.0};

  /// Every field except the per-period frontier_after_period trace: an
  /// O(1) copy, whatever the period count.
  [[nodiscard]] LearnStats counters() const {
    LearnStats c;
    c.periods_processed = periods_processed;
    c.messages_processed = messages_processed;
    c.peak_hypotheses = peak_hypotheses;
    c.hypotheses_created = hypotheses_created;
    c.merges = merges;
    c.unexplained_messages = unexplained_messages;
    c.quarantined_periods = quarantined_periods;
    c.wall_seconds = wall_seconds;
    return c;
  }
};

struct LearnResult {
  /// Surviving hypotheses, most specific first (sorted by ascending weight).
  std::vector<DependencyMatrix> hypotheses;
  LearnStats stats;

  /// Did the algorithm converge to a unique most specific solution (§3.1)?
  [[nodiscard]] bool converged() const { return hypotheses.size() == 1; }

  /// The paper's dLUB summarizer: least upper bound of all survivors.
  [[nodiscard]] DependencyMatrix lub() const { return lub_all(hypotheses); }
};

}  // namespace bbmg
