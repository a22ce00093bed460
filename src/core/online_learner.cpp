#include "core/online_learner.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "core/bounded_list.hpp"
#include "core/learner_metrics.hpp"
#include "core/post_process.hpp"
#include "core/vspace_stats.hpp"
#include "obs/span.hpp"

namespace bbmg {

OnlineLearner::OnlineLearner(std::size_t num_tasks, const OnlineConfig& config)
    : num_tasks_(num_tasks), config_(config), history_(num_tasks) {
  BBMG_REQUIRE(num_tasks >= 1, "learner needs at least one task");
  BBMG_REQUIRE(config.bound >= 1, "heuristic bound must be >= 1");
  frontier_.emplace_back(num_tasks);
  stats_.peak_hypotheses = 1;
}

namespace {
constexpr std::size_t phase(LearnerPhase p) {
  return static_cast<std::size_t>(p);
}
}  // namespace

void OnlineLearner::observe_period(const Period& period) {
  LearnerMetrics& metrics = LearnerMetrics::get();
  obs::Span span(&metrics.period_latency_us, "learner.period");
  // Hot-path accounting stays in the plain LearnStats fields; the global
  // metrics are fed once per period from the stats deltas below.
  const std::uint64_t created0 = stats_.hypotheses_created;
  const std::uint64_t merges0 = stats_.merges;
  const std::uint64_t unexplained0 = stats_.unexplained_messages;

  // Phase attribution: 1-in-stride periods take one stamp per phase
  // boundary; unsampled periods pay one relaxed fetch_add and zero clock
  // reads.  Lattice merges run nested inside the branch loop.
  obs::PhaseProfiler::Unit unit(learner_profiler());

  const PeriodCandidates pc(period, num_tasks_);
  unit.lap(phase(LearnerPhase::Enumerate));

  // The message loop works on keyed members (weight + Zobrist key), so a
  // child's key is O(1) from its parent; keys live only for this period.
  std::vector<KeyedHypothesis> front;
  front.reserve(frontier_.size());
  for (Hypothesis& h : frontier_) front.emplace_back(std::move(h));
  BoundedList list(config_.bound, stats_,
                   unit.nest(phase(LearnerPhase::LubMerge)));
  for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
    ++stats_.messages_processed;
    const auto& cands = pc.candidates(msg);
    if (vspace_stats_ != nullptr) {
      // Branching factor offered by this message, and the scan the loop
      // below performs (every frontier member against every candidate).
      vspace_stats_->on_message(
          cands.size(),
          static_cast<std::uint64_t>(front.size()) * cands.size());
    }

    for (const KeyedHypothesis& h : front) {
      for (const CandidatePair& p : cands) {
        if (h.h.pair_used(p)) continue;
        ++stats_.hypotheses_created;
        list.add_child(h, p, history_);
      }
    }

    if (list.empty()) {
      // No hypothesis could explain this message (every candidate pair
      // already assumed).  The exact learner fails here; the bounded
      // learner keeps the current list unchanged — conservative, every
      // member remains an upper bound of a matching hypothesis.
      ++stats_.unexplained_messages;
    } else {
      list.take(front);
    }
    stats_.peak_hypotheses = std::max(stats_.peak_hypotheses, front.size());
  }
  frontier_.clear();
  for (KeyedHypothesis& h : front) frontier_.push_back(std::move(h.h));
  unit.lap(phase(LearnerPhase::Branch), pc.num_messages());

  post_process_period(frontier_, pc);
  unit.lap(phase(LearnerPhase::PostProcess));
  ++stats_.periods_processed;
  history_.record_period(pc);
  unit.lap(phase(LearnerPhase::History));

  if (vspace_stats_ != nullptr) {
    vspace_stats_->on_period(frontier_.size(), approx_frontier_bytes());
  }

  metrics.periods.inc();
  metrics.messages.inc(pc.num_messages());
  metrics.branched.inc(stats_.hypotheses_created - created0);
  metrics.pruned.inc(stats_.merges - merges0);
  metrics.unexplained.inc(stats_.unexplained_messages - unexplained0);
  metrics.version_space_peak.set_max(
      static_cast<std::int64_t>(stats_.peak_hypotheses));
}

void OnlineLearner::observe_quarantined_period(
    const std::vector<bool>& observed) {
  BBMG_REQUIRE(observed.size() == num_tasks_,
               "observed-task mask must have one entry per task");
  history_.record_untrusted_period(observed);
  for (auto& h : frontier_) weaken_possibly_unmet_requirements(h, observed);
  remove_duplicates_and_redundant(frontier_);
  ++stats_.quarantined_periods;
  if (vspace_stats_ != nullptr) {
    // Quarantined periods count too: weakening can shrink the frontier.
    vspace_stats_->on_period(frontier_.size(), approx_frontier_bytes());
  }
}

std::uint64_t OnlineLearner::approx_frontier_bytes() const {
  if (frontier_.empty()) return 0;
  // Every hypothesis has the same shape (n x n matrix, n^2-bit assumption
  // set), so the estimate is per-hypothesis footprint x frontier size.
  const Hypothesis& h = frontier_.front();
  const std::uint64_t per =
      static_cast<std::uint64_t>(sizeof(Hypothesis)) +
      static_cast<std::uint64_t>(num_tasks_) * num_tasks_ * sizeof(DepValue) +
      static_cast<std::uint64_t>(h.used.words().size()) * sizeof(std::uint64_t);
  return per * frontier_.size();
}

// -- durable state codec ---------------------------------------------------
//
// Layout (little-endian, validated against the binary-codec sanity caps):
//
//   u32 num_tasks | u32 bound
//   history: num_tasks^2 bytes (0/1 cells)
//   u32 nfrontier x { matrix: n^2 value bytes |
//                     bitset: u32 bits, u32 nwords, nwords x u64 }
//   stats: u64 periods, messages, peak, created, merges, unexplained,
//          quarantined | u64 wall_seconds (IEEE-754 bit pattern)
//   u32 ntrace (always 0; the retired per-period frontier trace)
//
// Files written before the trace was retired may hold ntrace x u32
// entries there; decode skips them.

namespace {

void encode_matrix_cells(std::vector<std::uint8_t>& out,
                         const DependencyMatrix& m) {
  for (std::size_t a = 0; a < m.num_tasks(); ++a) {
    for (std::size_t b = 0; b < m.num_tasks(); ++b) {
      append_u8(out, static_cast<std::uint8_t>(m.at(a, b)));
    }
  }
}

DependencyMatrix decode_matrix_cells(ByteReader& r, std::size_t n) {
  DependencyMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint8_t v = r.read_u8();
      if (v >= kNumDepValues) {
        raise("learner state: invalid dependency value");
      }
      if (a == b) {
        if (v != static_cast<std::uint8_t>(DepValue::Parallel)) {
          raise("learner state: matrix diagonal must be parallel");
        }
        continue;
      }
      m.set(a, b, static_cast<DepValue>(v));
    }
  }
  return m;
}

/// Hypothesis-set cap for decode: far above any reachable bound, low
/// enough that a garbage count cannot drive a huge allocation.
constexpr std::size_t kMaxStateFrontier = 1u << 20;

}  // namespace

void OnlineLearner::encode_state(std::vector<std::uint8_t>& out) const {
  append_u32(out, static_cast<std::uint32_t>(num_tasks_));
  append_u32(out, static_cast<std::uint32_t>(config_.bound));
  for (const char c : history_.cells()) {
    append_u8(out, static_cast<std::uint8_t>(c != 0 ? 1 : 0));
  }
  append_u32(out, static_cast<std::uint32_t>(frontier_.size()));
  for (const Hypothesis& h : frontier_) {
    encode_matrix_cells(out, h.d);
    append_u32(out, static_cast<std::uint32_t>(h.used.size()));
    append_u32(out, static_cast<std::uint32_t>(h.used.words().size()));
    for (const std::uint64_t w : h.used.words()) append_u64(out, w);
  }
  append_u64(out, stats_.periods_processed);
  append_u64(out, stats_.messages_processed);
  append_u64(out, stats_.peak_hypotheses);
  append_u64(out, stats_.hypotheses_created);
  append_u64(out, stats_.merges);
  append_u64(out, stats_.unexplained_messages);
  append_u64(out, stats_.quarantined_periods);
  std::uint64_t wall_bits = 0;
  static_assert(sizeof(wall_bits) == sizeof(stats_.wall_seconds));
  std::memcpy(&wall_bits, &stats_.wall_seconds, sizeof(wall_bits));
  append_u64(out, wall_bits);
  append_u32(out, 0);
}

OnlineLearner OnlineLearner::decode_state(ByteReader& r) {
  const std::uint32_t n = r.read_u32();
  if (n == 0 || n > kMaxTasks) raise("learner state: task count out of range");
  const std::uint32_t bound = r.read_u32();
  if (bound == 0) raise("learner state: bound must be >= 1");
  OnlineConfig config;
  config.bound = bound;
  OnlineLearner learner(n, config);

  std::vector<char> cells(static_cast<std::size_t>(n) * n);
  for (char& c : cells) c = static_cast<char>(r.read_u8() != 0 ? 1 : 0);
  learner.history_.restore_cells(std::move(cells));

  const std::uint32_t nfrontier = r.read_u32();
  if (nfrontier == 0 || nfrontier > kMaxStateFrontier) {
    raise("learner state: frontier size out of range");
  }
  learner.frontier_.clear();
  learner.frontier_.reserve(nfrontier);
  const std::size_t bits_expected = static_cast<std::size_t>(n) * n;
  const std::size_t words_expected = (bits_expected + 63) / 64;
  for (std::uint32_t i = 0; i < nfrontier; ++i) {
    DependencyMatrix d = decode_matrix_cells(r, n);
    const std::uint32_t bits = r.read_u32();
    const std::uint32_t nwords = r.read_u32();
    if (bits != bits_expected || nwords != words_expected) {
      raise("learner state: assumption bitset shape mismatch");
    }
    std::vector<std::uint64_t> words;
    words.reserve(nwords);
    for (std::uint32_t w = 0; w < nwords; ++w) words.push_back(r.read_u64());
    learner.frontier_.emplace_back(
        std::move(d), DynamicBitset::from_words(bits, std::move(words)));
  }

  learner.stats_.periods_processed = r.read_u64();
  learner.stats_.messages_processed = r.read_u64();
  learner.stats_.peak_hypotheses = r.read_u64();
  learner.stats_.hypotheses_created = r.read_u64();
  learner.stats_.merges = r.read_u64();
  learner.stats_.unexplained_messages = r.read_u64();
  learner.stats_.quarantined_periods = r.read_u64();
  const std::uint64_t wall_bits = r.read_u64();
  std::memcpy(&learner.stats_.wall_seconds, &wall_bits,
              sizeof(learner.stats_.wall_seconds));
  // A garbage count throws once the payload runs out (its cap bounds it).
  for (std::uint32_t i = r.read_u32(); i > 0; --i) (void)r.read_u32();
  return learner;
}

LearnResult OnlineLearner::snapshot() const {
  LearnResult result;
  result.stats = stats_;
  result.hypotheses.reserve(frontier_.size());
  for (const auto& h : frontier_) result.hypotheses.push_back(h.d);
  std::sort(result.hypotheses.begin(), result.hypotheses.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() < b.weight();
            });
  return result;
}

}  // namespace bbmg
