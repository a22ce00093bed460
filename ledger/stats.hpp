// Sample statistics and open-loop accounting for the ledger benchmark.
//
// Header-only and free of project dependencies so the harness unit tests
// (harness_test.cpp) cover exactly the code the benchmark runs.
//
// Percentile rule: a timing is reported as its median plus a tail
// percentile, and a tail is only trustworthy when at least kTailMinBeyond
// samples lie beyond it (p99 needs 1000 samples, p90 needs 100).  Each
// workload fixes its tail percentile up front so the metric keeps its
// meaning across commits; summarize() says whether the sample supported it.
//
// Open-loop accounting: a period is due at a fixed time whether or not the
// system kept up.  Its latency runs from the due time (not the send time)
// to the moment the durable high-water mark covered it, so a stall charges
// every later period that waited behind it.  A period that failed, was
// refused, or never committed counts as missing any latency limit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ledger {

inline constexpr std::size_t kTailMinBeyond = 10;

/// Nearest-rank quantile of a sorted sample, q in [0, 1]: the smallest
/// value with at least q*n samples at or below it.  0 for an empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps 0.999 * 10000 from rounding up past rank 9990.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank position of percentile `pct`.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t at = rank <= 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n > at ? n - at : 0;
}

struct Summary {
  std::size_t n{0};
  double p50{0.0};
  /// Value at the workload's fixed tail percentile.
  double tail{0.0};
  double tail_pct{0.0};
  /// False when fewer than kTailMinBeyond samples lie beyond tail_pct.
  bool tail_supported{false};
};

inline Summary summarize(std::vector<double> samples, double tail_pct) {
  Summary s;
  s.n = samples.size();
  s.tail_pct = tail_pct;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  s.tail = quantile_sorted(samples, tail_pct / 100.0);
  s.tail_supported = samples_beyond(s.n, tail_pct) >= kTailMinBeyond;
  return s;
}

/// One scheduled period of an open-loop run.  Times are nanoseconds on one
/// monotonic clock; -1 means "never happened".
struct Slot {
  std::int64_t due_ns{0};
  std::int64_t sent_ns{-1};
  std::int64_t committed_ns{-1};
  /// The send raised or the server refused the period.
  bool failed{false};
};

struct StepReport {
  double rate{0.0};          ///< offered periods per second
  std::size_t attempted{0};  ///< periods due in the step
  std::size_t failed{0};     ///< failed or refused
  std::size_t missed{0};     ///< failed, never committed, or over the limit
  /// Latency from due time to commit, ms.  A period that failed or never
  /// committed is censored at the accounting horizon, so it still lands in
  /// the tail instead of silently vanishing from the sample.
  Summary latency_ms;
  /// Generator lateness (send time - due time), ms, over sent periods.
  Summary late_ms;
  /// Periods sent but not yet committed when the step's schedule ended.
  std::size_t backlog{0};
  /// Tail latency within the limit, no failures beyond the tail budget
  /// (failures count as misses), and no growing backlog.
  bool meets_limit{false};
};

/// Account one ladder step.  `step_end_ns` is when the step's schedule
/// ended; `horizon_ns` is when accounting gave up waiting for commits.
/// The backlog is "growing" when more periods are outstanding at the end
/// of the schedule than the limit lets drain at the offered rate.
inline StepReport account_step(const std::vector<Slot>& slots, double rate,
                               double limit_ms, double tail_pct,
                               std::int64_t step_end_ns,
                               std::int64_t horizon_ns) {
  StepReport r;
  r.rate = rate;
  r.attempted = slots.size();
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(slots.size());
  std::size_t committed = 0;
  for (const Slot& s : slots) {
    const bool done = !s.failed && s.committed_ns >= 0;
    if (s.failed) ++r.failed;
    if (s.sent_ns >= 0) {
      late.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
      if (!s.failed && (s.committed_ns < 0 || s.committed_ns > step_end_ns)) {
        ++r.backlog;
      }
    }
    const std::int64_t end = done ? s.committed_ns : horizon_ns;
    const double ms = static_cast<double>(end - s.due_ns) / 1e6;
    latency.push_back(ms);
    if (!done || ms > limit_ms) ++r.missed;
    if (done) ++committed;
  }
  r.latency_ms = summarize(std::move(latency), tail_pct);
  r.late_ms = summarize(std::move(late), tail_pct);
  const double allowed_backlog = std::max(1.0, rate * limit_ms / 1000.0);
  const std::size_t unfinished = r.attempted - committed;
  const double budget =
      static_cast<double>(r.attempted) * (1.0 - tail_pct / 100.0);
  r.meets_limit = r.attempted > 0 && r.latency_ms.tail <= limit_ms &&
                  static_cast<double>(unfinished) <= budget &&
                  static_cast<double>(r.backlog) <= allowed_backlog;
  return r;
}

/// FNV-1a, the input digest of the seed self-check.
struct Digest {
  std::uint64_t h{1469598103934665603ull};
  void add(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
};

/// SplitMix64 step: derives decorrelated per-input seeds from --seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                              std::uint64_t index = 0) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream * 0x10001ull +
                                                    index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace ledger
