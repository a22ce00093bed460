// Experiment E2 — the §3.4 runtime table: heuristic learner runtime as a
// function of the bound, on a GM-scale trace (18 tasks, 27 periods, ~340
// messages).  The paper's absolute numbers come from a 2007 Pentium M
// 1.7 GHz; the reproduction targets the *shape*: growth is superlinear in
// the bound (the O(m b^2 + m b t^2) envelope) and sub-second at bound 1.
// Each bound runs kRepeats times and reports the median wall time (the
// merge count is deterministic).  Besides the table, writes
// BENCH_bound_runtime.json — per bound `wall_ms`, `merges` and
// `events_per_sec` (event pairs learned per second) — for bench_runner's
// quick tier.  Exits non-zero when the LUB differs across bounds (paper
// Theorem 4).
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/heuristic_learner.hpp"

using namespace bbmg;

namespace {

constexpr int kRepeats = 3;

}  // namespace

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
  std::ostringstream bounds_json;
  DependencyMatrix reference;
  bool bound_invariant = true;
  for (const Row& row : rows) {
    std::vector<double> secs;
    LearnResult r;
    for (int rep = 0; rep < kRepeats; ++rep) {
      Stopwatch w;
      r = learn_heuristic(trace, row.bound);
      secs.push_back(w.elapsed_seconds());
    }
    std::sort(secs.begin(), secs.end());
    const double median = secs[secs.size() / 2];
    if (row.bound == 1) {
      reference = r.lub();
    } else if (r.lub() != reference) {
      bound_invariant = false;
    }
    table.add_row({std::to_string(row.bound), format_double(median, 3),
                   format_double(row.paper_seconds, 3),
                   r.converged() ? "yes" : "no",
                   std::to_string(r.stats.merges)});
    bounds_json << (row.bound == rows[0].bound ? "" : ",\n") << "    \""
                << row.bound << "\": {\"wall_ms\": " << median * 1e3
                << ", \"merges\": " << r.stats.merges
                << ", \"events_per_sec\": "
                << (median > 0.0
                        ? static_cast<double>(trace.total_event_pairs()) /
                              median
                        : 0.0)
                << "}";
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("result invariant across bounds (paper Theorem 4): %s\n",
              bound_invariant ? "yes" : "NO");

  std::ostringstream doc;
  doc << "{\n  \"bench\": \"bound_runtime\",\n"
      << "  \"event_pairs\": " << trace.total_event_pairs() << ",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"bounds\": {\n" << bounds_json.str() << "\n  },\n"
      << "  \"theorem4\": {\"ok\": " << (bound_invariant ? "true" : "false")
      << "}\n}\n";
  if (std::FILE* f = std::fopen("BENCH_bound_runtime.json", "w")) {
    std::fputs(doc.str().c_str(), f);
    std::fclose(f);
  }
  return bound_invariant ? 0 : 1;
}
