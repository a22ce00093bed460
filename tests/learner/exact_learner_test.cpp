// Exact-learner specifics: failure modes, dedup, instrumentation, and
// digests of its results pinned across dedup changes.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"
#include "support/learn_digest.hpp"

namespace bbmg {
namespace {

TEST(ExactLearner, ThrowsWhenAMessageHasNoExplanation) {
  // A message rising before any task has finished cannot have a sender:
  // the hypothesis set empties, which the paper interprets as "the
  // instances contain errors or the language is not expressive enough".
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::msg_rise(1, 1));
  b.add_event(Event::msg_fall(2, 1));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::task_start(11, TaskId{1u}));
  b.add_event(Event::task_end(20, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  EXPECT_THROW((void)learn_exact(t), Error);
}

TEST(ExactLearner, ThrowsWhenPairsRunOut) {
  // Two messages between two tasks in one period: only one ordered pair
  // is timing-feasible ((a,b) for both), and condition 3 allows it once.
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::msg_rise(11, 1));
  b.add_event(Event::msg_fall(12, 1));
  b.add_event(Event::msg_rise(13, 2));
  b.add_event(Event::msg_fall(14, 2));
  b.add_event(Event::task_start(20, TaskId{1u}));
  b.add_event(Event::task_end(30, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  EXPECT_THROW((void)learn_exact(t), Error);
}

TEST(ExactLearner, FrontierCapThrows) {
  ExactConfig cfg;
  cfg.max_frontier = 2;
  EXPECT_THROW((void)learn_exact(paper_example_trace(), cfg), Error);
}

TEST(ExactLearner, StatsReflectTheRun) {
  const LearnResult r = learn_exact(paper_example_trace());
  EXPECT_EQ(r.stats.periods_processed, 3u);
  EXPECT_EQ(r.stats.messages_processed, 8u);
  ASSERT_EQ(r.stats.frontier_after_period.size(), 3u);
  // The paper's §3.3 numbers: 3 hypotheses after period 1, 5 at the end.
  EXPECT_EQ(r.stats.frontier_after_period[0], 3u);
  EXPECT_EQ(r.stats.frontier_after_period[2], 5u);
  EXPECT_GE(r.stats.peak_hypotheses, 5u);
}

TEST(ExactLearner, SingleTaskTraceLearnsNothing) {
  TraceBuilder b({"solo"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.end_period();
  const Trace t = b.take();
  const LearnResult r = learn_exact(t);
  ASSERT_EQ(r.hypotheses.size(), 1u);
  EXPECT_EQ(r.hypotheses.front(), DependencyMatrix(1));
}

TEST(ExactLearner, ResultSortedByWeight) {
  const LearnResult r = learn_exact(paper_example_trace());
  for (std::size_t i = 1; i < r.hypotheses.size(); ++i) {
    EXPECT_LE(r.hypotheses[i - 1].weight(), r.hypotheses[i].weight());
  }
}

TEST(ExactLearner, RepeatedIdenticalPeriodsConverge) {
  // A deterministic single-path model: every period looks the same, and
  // after the first period the set stays fixed.
  TraceBuilder b({"a", "b"});
  for (int p = 0; p < 4; ++p) {
    const TimeNs base = static_cast<TimeNs>(p) * 1000;
    b.begin_period();
    b.add_event(Event::task_start(base + 0, TaskId{0u}));
    b.add_event(Event::task_end(base + 10, TaskId{0u}));
    b.add_event(Event::msg_rise(base + 11, 1));
    b.add_event(Event::msg_fall(base + 12, 1));
    b.add_event(Event::task_start(base + 13, TaskId{1u}));
    b.add_event(Event::task_end(base + 20, TaskId{1u}));
    b.end_period();
  }
  const Trace t = b.take();
  const LearnResult r = learn_exact(t);
  ASSERT_TRUE(r.converged());
  DependencyMatrix expected(2);
  expected.set(0, 1, DepValue::Forward);
  expected.set(1, 0, DepValue::Backward);
  EXPECT_EQ(r.hypotheses.front(), expected);
  for (std::size_t size : r.stats.frontier_after_period) {
    EXPECT_EQ(size, 1u);
  }
}

// -- pinned results -----------------------------------------------------------

/// The 5-task random traces of E3 (seed 3) and of the seeded sweep below.
Trace random_trace(std::uint64_t model_seed, double density,
                   std::size_t periods, std::uint64_t trace_seed) {
  RandomModelParams params;
  params.num_tasks = 5;
  params.num_layers = 3;
  params.extra_edge_density = density;
  params.seed = model_seed;
  return idealized_trace(random_model(params), periods, trace_seed);
}

/// Digest of learn_exact on `trace` (max_frontier 100000).
std::uint64_t exact_digest(const Trace& trace) {
  ExactConfig cfg;
  cfg.max_frontier = 100000;
  return test::learn_digest(learn_exact(trace, cfg));
}

// Pins recorded from the learner that deduplicated on an FNV content hash.

TEST(ExactLearnerDigest, E3TracesMatchPinnedKernel) {
  // E3's paper-4t-27p and rand-5t-12p rows.
  EXPECT_EQ(exact_digest(idealized_trace(paper_example_model(), 27, 5)),
            0xa1c1edb33b3b3d47ull);
  EXPECT_EQ(exact_digest(random_trace(3, 0.2, 12, 5)), 0x1bb5291057e81657ull);
}

class ExactLearnerDigest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactLearnerDigest, SeededTraceMatchesPinnedKernel) {
  constexpr std::uint64_t kPinned[] = {
      0x8192bacc38c73942ull, 0x7417c3c70e88686dull, 0x7b209f66c40a7e3eull,
      0x54996827aca91d5eull, 0x54996827aca91d5eull, 0x8192bacc38c73942ull,
      0xfcbb8bc0d5c7a901ull, 0xf44eb1cb16d72bf6ull};
  const std::uint64_t seed = GetParam();
  EXPECT_EQ(exact_digest(random_trace(seed, 0.25, 6, seed * 7 + 3)),
            kPinned[seed - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactLearnerDigest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace bbmg
