// SLO engine burn-rate math over hand-built series: threshold snapping,
// the two-window Page/Warn gate, counter-reset tolerance, error-ratio
// semantics when every attempt fails, and transition edge-detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "monitor/scraper.hpp"
#include "monitor/slo.hpp"
#include "monitor/ts_store.hpp"

namespace bbmg::monitor {
namespace {

SloObjective latency_objective(std::uint64_t threshold_us, double target) {
  SloObjective o;
  o.name = "lat";
  o.kind = SloKind::LatencyP;
  o.metric = "lat_us";
  o.threshold_us = threshold_us;
  o.target = target;
  return o;
}

/// One scrape of a latency histogram on endpoint e0: cumulative counts at
/// bounds 1000us / 10000us / +Inf plus the total count.
void scrape_latency(TsStore& store, std::uint64_t at_ms, std::uint64_t le1k,
                    std::uint64_t le10k, std::uint64_t count) {
  store.append("e0", bucket_series("lat_us", 1000), at_ms,
               static_cast<std::int64_t>(le1k));
  store.append("e0", bucket_series("lat_us", 10000), at_ms,
               static_cast<std::int64_t>(le10k));
  store.append("e0", inf_bucket_series("lat_us"), at_ms,
               static_cast<std::int64_t>(count));
  store.append("e0", count_series("lat_us"), at_ms,
               static_cast<std::int64_t>(count));
}

TEST(SloEngine, HealthyTrafficBurnsUnderOne) {
  TsStore store;
  // 1000 requests per 30 s scrape, 99.5% under 10 ms: bad fraction 0.005
  // against a 0.01 budget -> burn 0.5 in every window.
  for (std::uint64_t i = 0; i <= 10; ++i) {
    scrape_latency(store, i * 30'000, 900 * i, 995 * i, 1000 * i);
  }
  SloEngine engine(store, {latency_objective(10'000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
  EXPECT_NEAR(statuses[0].fast_burn, 0.5, 1e-9);
  EXPECT_NEAR(statuses[0].slow_burn, 0.5, 1e-9);
  EXPECT_NE(statuses[0].detail.find("fast 0.50x"), std::string::npos)
      << statuses[0].detail;
}

TEST(SloEngine, ThresholdSnapsUpToNearestBucketBound) {
  TsStore store;
  // Threshold 8 ms has no exact bucket; "good" must read the 10 ms bound
  // (the next one up), not the 1 ms one below it.
  scrape_latency(store, 0, 0, 0, 0);
  scrape_latency(store, 60'000, 100, 990, 1000);
  SloEngine engine(store, {latency_objective(8'000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  // bad = 1000 - 990 = 10 -> fraction 0.01 -> burn 1.0 (not the 90%-bad
  // disaster the 1 ms bucket would report).
  EXPECT_NEAR(statuses[0].fast_burn, 1.0, 1e-9);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
}

TEST(SloEngine, ThresholdAboveAllBoundsUsesInfBucket) {
  TsStore store;
  scrape_latency(store, 0, 0, 0, 0);
  scrape_latency(store, 60'000, 1, 2, 1000);
  SloEngine engine(store, {latency_objective(99'000'000, 0.99)});
  // Everything is <= +Inf, so nothing is bad no matter how slow.
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  EXPECT_DOUBLE_EQ(statuses[0].fast_burn, 0.0);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
}

TEST(SloEngine, PagesOnlyWhenBothWindowsBurn) {
  TsStore store;
  // Minutes 0-4: perfectly healthy traffic (1000 req / 30 s, all good).
  std::uint64_t t = 0;
  std::uint64_t count = 0;
  std::uint64_t good = 0;
  for (; t <= 240'000; t += 30'000) {
    scrape_latency(store, t, good, good, count);
    count += 1000;
    good += 1000;
  }
  SloEngine engine(store, {latency_objective(10'000, 0.99)});

  // Minutes 4.5-5: half of all new requests go bad.  The fast window
  // burns 25, but the slow window still averages the healthy minutes
  // (bad 500 / total 10000 -> burn 5): a fresh blip warns, it does not
  // page yet.
  for (; t <= 300'000; t += 30'000) {
    scrape_latency(store, t, good, good, count);
    count += 1000;
    good += 500;
  }
  std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  EXPECT_GE(statuses[0].fast_burn, 8.0);
  EXPECT_LT(statuses[0].slow_burn, 8.0);
  EXPECT_EQ(statuses[0].state, AlertState::Warn);

  // The incident sustains: five more minutes of 50%-bad traffic drags the
  // slow window over the page threshold too -> Page.
  for (; t <= 600'000; t += 30'000) {
    scrape_latency(store, t, good, good, count);
    count += 1000;
    good += 500;
  }
  statuses = engine.evaluate(600'000);
  EXPECT_EQ(statuses[0].state, AlertState::Page);

  // Recovery: five minutes of clean traffic drains both windows -> Ok.
  for (; t <= 960'000; t += 30'000) {
    scrape_latency(store, t, good, good, count);
    count += 1000;
    good += 1000;
  }
  statuses = engine.evaluate(960'000);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
  EXPECT_DOUBLE_EQ(statuses[0].fast_burn, 0.0);
}

TEST(SloEngine, MildBreachWarnsWithoutPaging) {
  TsStore store;
  // Steady 3%-bad traffic: burn 3 in both windows — over warn_burn 2,
  // under page_burn 8.
  for (std::uint64_t i = 0; i <= 10; ++i) {
    scrape_latency(store, i * 30'000, 0, 970 * i, 1000 * i);
  }
  SloEngine engine(store, {latency_objective(10'000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  EXPECT_NEAR(statuses[0].fast_burn, 3.0, 1e-9);
  EXPECT_EQ(statuses[0].state, AlertState::Warn);
}

TEST(SloEngine, CounterResetReadsAsNoTraffic) {
  TsStore store;
  scrape_latency(store, 0, 5000, 5000, 5000);
  // Endpoint restarted: counters collapse.  The negative delta must be
  // ignored, not wrapped into a huge unsigned bad count.
  scrape_latency(store, 60'000, 10, 10, 10);
  SloEngine engine(store, {latency_objective(10'000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  EXPECT_DOUBLE_EQ(statuses[0].fast_burn, 0.0);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
}

TEST(SloEngine, ZeroTrafficBurnsNothing) {
  TsStore store;  // empty: no series at all
  SloEngine engine(store, {latency_objective(10'000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  EXPECT_DOUBLE_EQ(statuses[0].fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(statuses[0].slow_burn, 0.0);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
}

TEST(SloEngine, ErrorRatioCountsFailuresAgainstGoodPlusBad) {
  TsStore store;
  // Every attempt fails: the success counter never moves.  total must be
  // good + bad = 0 + 100, so the bad fraction is 1.0 -> burn 1000.
  store.append("e0", "errs_total", 0, 0);
  store.append("e0", "oks_total", 0, 0);
  store.append("e0", "errs_total", 60'000, 100);
  store.append("e0", "oks_total", 60'000, 0);
  SloObjective o;
  o.name = "errors";
  o.kind = SloKind::ErrorRatio;
  o.metric = "errs_total";
  o.total_metric = "oks_total";
  o.target = 0.999;
  SloEngine engine(store, {o});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  EXPECT_NEAR(statuses[0].fast_burn, 1000.0, 1e-6);
  EXPECT_EQ(statuses[0].state, AlertState::Page);
}

TEST(SloEngine, SumsDeltasAcrossEndpoints) {
  TsStore store;
  // Two endpoints, each 1%-bad: summed they stay 1%-bad (burn 1.0), not
  // double-counted.
  for (const char* ep : {"a", "b"}) {
    store.append(ep, count_series("lat_us"), 0, 0);
    store.append(ep, inf_bucket_series("lat_us"), 0, 0);
    store.append(ep, bucket_series("lat_us", 1000), 0, 0);
    store.append(ep, count_series("lat_us"), 60'000, 1000);
    store.append(ep, inf_bucket_series("lat_us"), 60'000, 1000);
    store.append(ep, bucket_series("lat_us", 1000), 60'000, 990);
  }
  SloEngine engine(store, {latency_objective(1000, 0.99)});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(60'000);
  EXPECT_NEAR(statuses[0].fast_burn, 1.0, 1e-9);
}

TEST(SloEngine, RejectsMalformedObjectives) {
  TsStore store;
  SloObjective nameless = latency_objective(1000, 0.99);
  nameless.name = "";
  EXPECT_THROW(SloEngine(store, {nameless}), Error);

  SloObjective bad_target = latency_objective(1000, 1.0);
  EXPECT_THROW(SloEngine(store, {bad_target}), Error);

  SloObjective ratio;
  ratio.name = "r";
  ratio.kind = SloKind::ErrorRatio;
  ratio.metric = "errs";
  ratio.target = 0.99;  // total_metric missing
  EXPECT_THROW(SloEngine(store, {ratio}), Error);
}

TEST(SloEngine, DefaultObjectivesCoverIngestRttErrorsAndReplication) {
  const std::vector<SloObjective> defaults = default_objectives();
  ASSERT_EQ(defaults.size(), 5u);
  EXPECT_EQ(defaults[0].name, "ingest-latency");
  EXPECT_EQ(defaults[1].name, "client-rtt");
  EXPECT_EQ(defaults[2].name, "client-errors");
  EXPECT_EQ(defaults[2].kind, SloKind::ErrorRatio);
  EXPECT_EQ(defaults[3].name, "replication-stalled");
  EXPECT_EQ(defaults[3].kind, SloKind::GaugeAbove);
  EXPECT_EQ(defaults[3].metric, "bbmg_cluster_replication_stalled");
  EXPECT_EQ(defaults[4].name, "accept-errors");
  EXPECT_EQ(defaults[4].kind, SloKind::ErrorRatio);
  EXPECT_EQ(defaults[4].metric, "bbmg_serve_accept_errors_total");
  EXPECT_EQ(defaults[4].total_metric, "bbmg_serve_connections_total");
  TsStore store;
  SloEngine engine(store, defaults);  // all five validate
  EXPECT_EQ(engine.objectives().size(), 5u);
}

SloObjective gauge_objective() {
  SloObjective o;
  o.name = "stalled";
  o.kind = SloKind::GaugeAbove;
  o.metric = "bbmg_cluster_replication_stalled";
  o.threshold_us = 0;
  return o;
}

TEST(SloEngine, GaugeSustainedAboveThresholdPages) {
  TsStore store;
  // The gauge sits at 2 across the whole slow window: sustained on both
  // windows -> page.
  for (std::uint64_t i = 0; i <= 10; ++i) {
    store.append("shard0", "bbmg_cluster_replication_stalled", i * 30'000, 2);
  }
  SloEngine engine(store, {gauge_objective()});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, AlertState::Page);
}

TEST(SloEngine, GaugeAboveOnlyAtTheLatestSampleWarns) {
  TsStore store;
  // Healthy all along, stalled only on the newest scrape: above-now but
  // not sustained -> warn on both windows, no page.
  for (std::uint64_t i = 0; i < 10; ++i) {
    store.append("shard0", "bbmg_cluster_replication_stalled", i * 30'000, 0);
  }
  store.append("shard0", "bbmg_cluster_replication_stalled", 300'000, 1);
  SloEngine engine(store, {gauge_objective()});
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, AlertState::Warn);
}

TEST(SloEngine, GaugeAlertClearsTheMomentTheStreamHeals) {
  TsStore store;
  // Stalled for most of the window, then a pushed map heals the stream
  // and the gauge drops to 0: level-triggered means instant recovery.
  for (std::uint64_t i = 0; i <= 9; ++i) {
    store.append("shard0", "bbmg_cluster_replication_stalled", i * 30'000, 3);
  }
  SloEngine engine(store, {gauge_objective()});
  EXPECT_EQ(engine.evaluate(270'000)[0].state, AlertState::Page);
  store.append("shard0", "bbmg_cluster_replication_stalled", 300'000, 0);
  const std::vector<ObjectiveStatus> statuses = engine.evaluate(300'000);
  EXPECT_EQ(statuses[0].state, AlertState::Ok);
  EXPECT_EQ(statuses[0].fast_burn, 0.0);
  EXPECT_EQ(statuses[0].slow_burn, 0.0);
}

TEST(SloEngine, GaugeNeverScrapedBurnsNothing) {
  TsStore store;
  SloEngine engine(store, {gauge_objective()});
  EXPECT_EQ(engine.evaluate(300'000)[0].state, AlertState::Ok);
}

}  // namespace
}  // namespace bbmg::monitor
