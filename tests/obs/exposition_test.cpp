// Golden tests for the snapshot serializers (obs/exposition.hpp).  The
// snapshots are constructed literally rather than through a registry:
// serialization is plain data transformation.
#include <gtest/gtest.h>

#include "obs/exposition.hpp"

namespace bbmg::obs {
namespace {

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"bbmg_learner_periods_total", 12});
  snap.counters.push_back({"bbmg_robust_defects_total{kind=\"orphan\"}", 3});
  snap.gauges.push_back({"bbmg_serve_queue_depth{worker=\"0\"}", -2});
  HistogramSample h;
  h.name = "bbmg_learner_period_latency_us";
  h.upper_bounds = {10, 100};
  h.counts = {4, 1, 2};  // +Inf bucket last
  h.sum = 777;
  h.count = 7;
  snap.histograms.push_back(h);
  return snap;
}

TEST(Exposition, PrometheusGolden) {
  // Families are name-sorted with a # TYPE header each; histogram buckets
  // are cumulative and end with the mandatory le="+Inf" == _count.
  const std::string expected =
      "# TYPE bbmg_learner_period_latency_us histogram\n"
      "bbmg_learner_period_latency_us_bucket{le=\"10\"} 4\n"
      "bbmg_learner_period_latency_us_bucket{le=\"100\"} 5\n"
      "bbmg_learner_period_latency_us_bucket{le=\"+Inf\"} 7\n"
      "bbmg_learner_period_latency_us_sum 777\n"
      "bbmg_learner_period_latency_us_count 7\n"
      "# TYPE bbmg_learner_periods_total counter\n"
      "bbmg_learner_periods_total 12\n"
      "# TYPE bbmg_robust_defects_total counter\n"
      "bbmg_robust_defects_total{kind=\"orphan\"} 3\n"
      "# TYPE bbmg_serve_queue_depth gauge\n"
      "bbmg_serve_queue_depth{worker=\"0\"} -2\n";
  EXPECT_EQ(to_prometheus(sample_snapshot()), expected);
}

TEST(Exposition, PrometheusHelpGolden) {
  // # HELP precedes # TYPE for families that have help text; families
  // without an entry (or with empty help) get no HELP line.  Backslashes
  // and newlines in help text are escaped per the exposition format.
  std::map<std::string, std::string> help;
  help["bbmg_learner_periods_total"] = "Periods learned\nfrom \\ traces";
  help["bbmg_serve_queue_depth"] = "";
  const std::string text = to_prometheus(sample_snapshot(), &help);
  EXPECT_NE(
      text.find("# HELP bbmg_learner_periods_total Periods learned\\nfrom "
                "\\\\ traces\n# TYPE bbmg_learner_periods_total counter\n"),
      std::string::npos)
      << text;
  EXPECT_EQ(text.find("# HELP bbmg_serve_queue_depth"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("# HELP bbmg_robust_defects_total"), std::string::npos)
      << text;
}

TEST(Exposition, PrometheusLabeledSeriesShareOneFamilyHeader) {
  MetricsSnapshot snap;
  snap.counters.push_back({"bbmg_x_total{kind=\"a\"}", 1});
  snap.counters.push_back({"bbmg_x_total{kind=\"b\"}", 2});
  const std::string text = to_prometheus(snap);
  EXPECT_EQ(text,
            "# TYPE bbmg_x_total counter\n"
            "bbmg_x_total{kind=\"a\"} 1\n"
            "bbmg_x_total{kind=\"b\"} 2\n");
}

TEST(Exposition, PrometheusMergesBakedLabelsWithLe) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "bbmg_x_us{stage=\"learn\"}";
  h.upper_bounds = {5};
  h.counts = {1, 0};
  h.sum = 2;
  h.count = 1;
  snap.histograms.push_back(h);
  const std::string text = to_prometheus(snap);
  EXPECT_NE(text.find("bbmg_x_us_bucket{stage=\"learn\",le=\"5\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bbmg_x_us_sum{stage=\"learn\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("bbmg_x_us_count{stage=\"learn\"} 1"), std::string::npos)
      << text;
}

TEST(Exposition, JsonGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"bbmg_learner_periods_total\": 12,\n"
      "    \"bbmg_robust_defects_total{kind=\\\"orphan\\\"}\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"bbmg_serve_queue_depth{worker=\\\"0\\\"}\": -2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"bbmg_learner_period_latency_us\": "
      "{\"le\": [10, 100], \"counts\": [4, 1, 2], "
      "\"sum\": 777, \"count\": 7}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(to_json(sample_snapshot()), expected);
}

TEST(Exposition, EmptySnapshotSerializes) {
  const MetricsSnapshot empty;
  EXPECT_EQ(to_prometheus(empty), "");
  EXPECT_EQ(to_json(empty),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

}  // namespace
}  // namespace bbmg::obs
