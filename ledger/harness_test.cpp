// Unit tests of the ledger harness's statistics: the percentile rule and
// the open-loop lateness, failure and backlog accounting.
//
//   cmake --build .bench_build --target bbmg_ledger_tests
//   .bench_build/bbmg_ledger_tests
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace ledger {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NearestRankQuantiles) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);  // no rounding past 9990
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(5, 99.0), 0u);
  EXPECT_TRUE(summarize(one_to(100), 90.0).tail_supported);
  EXPECT_FALSE(summarize(one_to(99), 90.0).tail_supported);
}

TEST(PercentileRule, SummaryReportsSupportAndCount) {
  const Summary big = summarize(one_to(1000), 99.0);
  EXPECT_EQ(big.n, 1000u);
  EXPECT_EQ(big.p50, 500.0);
  EXPECT_EQ(big.tail, 990.0);
  EXPECT_TRUE(big.tail_supported);
  const Summary small = summarize(one_to(500), 99.0);
  EXPECT_FALSE(small.tail_supported);
  EXPECT_EQ(small.tail, 495.0);  // still computed, flagged unsupported
}

// Four periods due 1 ms apart at 1000/s; the step ends at 4 ms.
std::vector<Slot> four_slots() {
  std::vector<Slot> s(4);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].due_ns = static_cast<std::int64_t>(i) * 1'000'000;
  }
  return s;
}

TEST(OpenLoop, LatencyRunsFromDueTimeAndLatenessIsReported) {
  std::vector<Slot> s = four_slots();
  // The generator stalled 3 ms before the first send; everything after it
  // went out late and commits 0.5 ms after sending.
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].sent_ns = 3'000'000 + static_cast<std::int64_t>(i) * 100'000;
    s[i].committed_ns = s[i].sent_ns + 500'000;
  }
  const StepReport r =
      account_step(s, 1000.0, 10.0, 50.0, 4'000'000, 20'000'000);
  EXPECT_EQ(r.attempted, 4u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.missed, 0u);
  // Due-time latency of slot 0 is 3.5 ms, not the 0.5 ms send->commit.
  EXPECT_DOUBLE_EQ(r.latency_ms.p50, 1.7);  // slots: 3.5, 2.6, 1.7, 0.8
  EXPECT_DOUBLE_EQ(r.late_ms.p50, 1.2);     // lateness: 3.0, 2.1, 1.2, 0.3
  EXPECT_TRUE(r.meets_limit);
}

TEST(OpenLoop, FailedAndUncommittedPeriodsMissTheLimit) {
  std::vector<Slot> s = four_slots();
  for (Slot& slot : s) {
    slot.sent_ns = slot.due_ns;
    slot.committed_ns = slot.due_ns + 100'000;
  }
  s[1].failed = true;         // refused by the server
  s[2].committed_ns = -1;     // never acknowledged
  const StepReport r =
      account_step(s, 1000.0, 10.0, 75.0, 4'000'000, 50'000'000);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.missed, 2u);
  // The uncommitted ones are censored at the horizon, so they sit in the
  // tail instead of vanishing: two of four samples are ~48-50 ms.
  EXPECT_GT(r.latency_ms.tail, 40.0);
  EXPECT_FALSE(r.meets_limit);
}

TEST(OpenLoop, GrowingBacklogFailsTheStepEvenUnderTheLimit) {
  std::vector<Slot> s(100);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].due_ns = static_cast<std::int64_t>(i) * 1'000'000;
    s[i].sent_ns = s[i].due_ns;
  }
  // Every period commits 5 ms late (under a 10 ms limit), but the last 20
  // are still outstanding when the schedule ends at 100 ms: more than the
  // 10 the limit lets drain at 1000/s.
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].committed_ns = i < 80 ? s[i].due_ns + 5'000'000 : 100'000'001;
  }
  const StepReport r =
      account_step(s, 1000.0, 10.0, 50.0, 100'000'000, 200'000'000);
  EXPECT_EQ(r.backlog, 20u);
  EXPECT_FALSE(r.meets_limit);
}

TEST(SeedDiscipline, MixSeedIsDeterministicAndDecorrelated) {
  EXPECT_EQ(mix_seed(7, 1, 2), mix_seed(7, 1, 2));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(8, 1, 2));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(7, 2, 2));
  EXPECT_NE(mix_seed(7, 1, 2), mix_seed(7, 1, 3));
  Digest a;
  Digest b;
  a.add_u64(1);
  b.add_u64(2);
  EXPECT_NE(a.h, b.h);
}

}  // namespace
}  // namespace ledger
