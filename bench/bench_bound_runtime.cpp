// Experiment E2 — the §3.4 runtime table: heuristic learner runtime as a
// function of the bound, on a GM-scale trace (18 tasks, 27 periods, ~340
// messages).  The paper's absolute numbers come from a 2007 Pentium M
// 1.7 GHz; the reproduction targets the *shape*: growth is superlinear in
// the bound (the O(m b^2 + m b t^2) envelope) and sub-second at bound 1.
// Exits non-zero when the LUB differs across bounds (paper Theorem 4).
#include <cstdio>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/heuristic_learner.hpp"

using namespace bbmg;

int main() {
  bench::heading("E2: heuristic runtime vs bound (paper §3.4 table)");
  const Trace trace = bench::gm_trace();
  std::printf("trace: %zu tasks, %zu periods, %zu messages, %zu event pairs\n"
              "paper: 18 tasks, 27 periods, 330 messages, 700 event pairs\n\n",
              trace.num_tasks(), trace.num_periods(), trace.total_messages(),
              trace.total_event_pairs());

  struct Row {
    std::size_t bound;
    double paper_seconds;
  };
  const Row rows[] = {{1, 0.220},  {4, 0.471},   {16, 1.202},  {32, 2.573},
                      {64, 5.899}, {100, 12.608}, {120, 16.294}, {150, 19.048}};

  TextTable table({"Bound", "Run time (sec)", "Paper (sec)", "Converged",
                   "Merges"});
  DependencyMatrix reference;
  bool bound_invariant = true;
  for (const Row& row : rows) {
    Stopwatch w;
    const LearnResult r = learn_heuristic(trace, row.bound);
    const double secs = w.elapsed_seconds();
    if (row.bound == 1) {
      reference = r.lub();
    } else if (r.lub() != reference) {
      bound_invariant = false;
    }
    table.add_row({std::to_string(row.bound), format_double(secs, 3),
                   format_double(row.paper_seconds, 3),
                   r.converged() ? "yes" : "no",
                   std::to_string(r.stats.merges)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("result invariant across bounds (paper Theorem 4): %s\n",
              bound_invariant ? "yes" : "NO");
  return bound_invariant ? 0 : 1;
}
