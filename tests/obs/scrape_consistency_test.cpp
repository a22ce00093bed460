// Scrape consistency under concurrent writers.  The histogram write path
// orders count (relaxed) -> sum -> bucket (release) and the snapshot path
// reads buckets (acquire) before count, so a scrape taken mid-update may
// undercount buckets but must never observe sum(buckets) > count.  A
// violation here would surface downstream as a Prometheus histogram whose
// +Inf bucket disagrees with _count, and as a negative "good" delta in the
// monitor's burn-rate math.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(ScrapeConsistency, ConcurrentScrapesNeverSeeBucketsAboveCount) {
  MetricsRegistry registry;
  Histogram& hist =
      registry.histogram("bbmg_test_scrape_us", {10, 100, 1000, 10000});
  Counter& ticks = registry.counter("bbmg_test_ticks_total");

  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kObservationsPerWriter = 50000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&hist, &ticks, w] {
      // A cheap LCG spreads observations across buckets so every bucket
      // cell is contended, not just the first.
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * (w + 1);
      for (std::uint64_t i = 0; i < kObservationsPerWriter; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        hist.observe(state % 20000);
        ticks.inc();
      }
    });
  }

  // Scrape as fast as possible while the writers hammer the histogram.
  std::uint64_t scrapes = 0;
  std::uint64_t last_count = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistogramSample& h = snap.histograms[0];
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t c : h.counts) bucket_sum += c;
    // The core invariant: buckets released before count was read.
    ASSERT_LE(bucket_sum, h.count)
        << "scrape " << scrapes << " observed " << bucket_sum
        << " bucketed observations but count " << h.count;
    // Count itself must be monotone across scrapes.
    ASSERT_GE(h.count, last_count);
    last_count = h.count;
    ++scrapes;
    if (h.count >= kWriters * kObservationsPerWriter) {
      stop.store(true, std::memory_order_relaxed);
    }
  }
  for (std::thread& t : writers) t.join();

  // Quiesced: the final snapshot is exact.
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSample& h = snap.histograms[0];
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t c : h.counts) bucket_sum += c;
  EXPECT_EQ(h.count, kWriters * kObservationsPerWriter);
  EXPECT_EQ(bucket_sum, h.count);
  EXPECT_GE(scrapes, 1u);
}

}  // namespace
}  // namespace bbmg::obs
