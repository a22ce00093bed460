// Experiment E3 — exact vs heuristic learner (paper §3.4).
//
// The paper ran the precise exponential algorithm once on its case-study
// trace: 630.997 s (vs 0.22-19 s for the heuristic), and the single
// returned dependency function equalled the LUB of the heuristic results
// at every bound (Theorem 4 observed in practice).
//
// The exact algorithm's cost is governed by the per-message ambiguity
// |A_m| of the trace (the problem is NP-hard, Theorem 1).  The paper's
// proprietary trace evidently had small candidate sets; our simulated
// GM-scale trace does not, and the exact frontier exceeds millions of
// hypotheses inside one period (reported below, gated by BBMG_FULL=1).
// The reproduction therefore sweeps trace scale upward while the exact
// learner is feasible and, at each point, verifies:
//   * the runtime gap exact >> heuristic,
//   * heuristic(bound 1) >= lub(exact) with equality in the common case,
//   * exact returns the complete most-specific set.
// Exit 1 if lub(exact) is not below heur(1) on some row: Theorems 2 and 4
// rule that out.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/exact_learner.hpp"
#include "core/heuristic_learner.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"

using namespace bbmg;

namespace {

struct Config {
  const char* name;
  std::size_t tasks;
  std::size_t periods;
};

}  // namespace

int main() {
  bench::heading("E3: exact vs heuristic (paper §3.4: 630.997 s vs 19 s, "
                 "equal results)");

  TextTable table({"Trace", "Msgs", "Exact (s)", "Peak set", "Hyps",
                   "Heur b=1 (s)", "Ratio", "lub(exact) vs heur(1)"});

  const Config configs[] = {
      {"paper-4t-27p", 4, 27},
      {"rand-5t-12p", 5, 12},
      {"rand-6t-12p", 6, 12},
      {"rand-6t-20p", 6, 20},
      {"rand-7t-12p", 7, 12},
  };
  bool incomparable = false;
  std::string aborts;  // where each infeasible row hit max_frontier

  for (const Config& cfg : configs) {
    Trace trace;
    if (cfg.tasks == 4) {
      trace = idealized_trace(paper_example_model(), cfg.periods, 5);
    } else {
      RandomModelParams params;
      params.num_tasks = cfg.tasks;
      params.num_layers = 3;
      params.extra_edge_density = 0.2;
      params.seed = 3;
      trace = idealized_trace(random_model(params), cfg.periods, 5);
    }

    ExactConfig exact_cfg;
    exact_cfg.max_frontier = 2'000'000;
    Stopwatch we;
    LearnResult exact;
    bool exact_ok = true;
    try {
      exact = learn_exact(trace, exact_cfg);
    } catch (const Error& e) {
      exact_ok = false;
      aborts += std::string("  ") + cfg.name + ": " + e.what() + "\n";
    }
    const double exact_secs = we.elapsed_seconds();

    Stopwatch wh;
    const LearnResult h1 = learn_heuristic(trace, 1);
    const double heur_secs = wh.elapsed_seconds();

    if (!exact_ok) {
      table.add_row({cfg.name, std::to_string(trace.total_messages()),
                     "frontier>2e6 after " + format_double(exact_secs, 1) +
                         " s",
                     "-", "-", format_double(heur_secs, 4), "-", "-"});
      continue;
    }
    const DependencyMatrix elub = exact.lub();
    const DependencyMatrix& hm = h1.hypotheses.front();
    const bool below = elub.leq(hm);
    const char* relation = (hm == elub) ? "equal"
                           : below      ? "heur more general"
                                        : "incomparable";
    incomparable |= !below;
    table.add_row(
        {cfg.name, std::to_string(trace.total_messages()),
         format_double(exact_secs, 3),
         std::to_string(exact.stats.peak_hypotheses),
         std::to_string(exact.hypotheses.size()),
         format_double(heur_secs, 4),
         format_double(heur_secs > 0 ? exact_secs / heur_secs : 0.0, 0) + "x",
         relation});
  }
  std::printf("%s\n%s", table.to_string().c_str(), aborts.c_str());

  // The GM-scale attempt: demonstrates the NP-hard blow-up on our
  // (higher-concurrency) platform traces.
  if (bench::full_scale()) {
    std::printf("GM-scale exact attempt (BBMG_FULL=1):\n");
    const Trace gm = bench::gm_trace();
    ExactConfig exact_cfg;
    exact_cfg.max_frontier = 4'000'000;
    Stopwatch w;
    try {
      const LearnResult r = learn_exact(gm, exact_cfg);
      std::printf("  completed in %.1f s with %zu hypotheses\n",
                  w.elapsed_seconds(), r.hypotheses.size());
    } catch (const Error& e) {
      std::printf("  aborted after %.1f s: %s\n", w.elapsed_seconds(),
                  e.what());
    }
  } else {
    std::printf("GM-scale exact attempt skipped (the frontier exceeds "
                "millions of hypotheses\ninside period 1 on our simulated "
                "trace; run with BBMG_FULL=1 to reproduce\nthe abort).  See "
                "EXPERIMENTS.md for the discussion of why the paper's\n"
                "proprietary trace admitted a 631 s exact run.\n");
  }
  if (incomparable) {
    std::printf("FAIL: lub(exact) is not below heur(1) on some row "
                "(Theorems 2 and 4 rule this out)\n");
    return 1;
  }
  return 0;
}
