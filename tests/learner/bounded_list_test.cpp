// The keyed bounded list against a frozen copy of the linear-scan list it
// replaced: same members, same assumption sets, same order after every
// message, and the same LearnStats after every period.  Plus the key set's
// collision handling and a digest of the E2 trace's result pinned from the
// linear-scan implementation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bounded_list.hpp"
#include "core/heuristic_learner.hpp"
#include "core/key_set.hpp"
#include "core/online_learner.hpp"
#include "core/post_process.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/scenarios.hpp"
#include "sim/simulator.hpp"
#include "support/learn_digest.hpp"

namespace bbmg {
namespace {

// -- reference: the linear-scan list, as the learner ran it before keyed
// dedup (a full scan of the list per child, sorted insertion, merges that
// erase the front two).

class LinearScanList {
 public:
  LinearScanList(std::size_t bound, LearnStats& stats)
      : bound_(bound), stats_(stats) {}

  [[nodiscard]] bool empty() const { return items_.empty(); }

  void add(Hypothesis h) {
    Scored scored{std::move(h), 0};
    scored.weight = scored.h.d.weight();
    if (is_duplicate(scored)) return;
    insert_sorted(std::move(scored));
    while (items_.size() > bound_) merge_two_least();
  }

  std::vector<Hypothesis> take() {
    std::vector<Hypothesis> out;
    for (auto& s : items_) out.push_back(std::move(s.h));
    items_.clear();
    return out;
  }

 private:
  struct Scored {
    Hypothesis h;
    std::uint64_t weight;
  };

  [[nodiscard]] bool is_duplicate(const Scored& s) const {
    for (const Scored& x : items_) {
      if (x.weight == s.weight && x.h == s.h) return true;
    }
    return false;
  }

  void insert_sorted(Scored s) {
    auto it = std::upper_bound(
        items_.begin(), items_.end(), s.weight,
        [](std::uint64_t w, const Scored& x) { return w < x.weight; });
    items_.insert(it, std::move(s));
  }

  void merge_two_least() {
    Scored a = std::move(items_[0]);
    Scored b = std::move(items_[1]);
    items_.erase(items_.begin(), items_.begin() + 2);
    Hypothesis merged(a.h.d.lub(b.h.d), std::move(a.h.used));
    merged.used.unite(b.h.used);
    ++stats_.merges;
    Scored scored{std::move(merged), 0};
    scored.weight = scored.h.d.weight();
    if (is_duplicate(scored)) return;
    insert_sorted(std::move(scored));
  }

  std::size_t bound_;
  LearnStats& stats_;
  std::vector<Scored> items_;
};

/// Runs one trace through both lists side by side: the linear-scan list
/// decides the frontier, the keyed list must agree after every message.
class Lockstep {
 public:
  Lockstep(std::size_t num_tasks, std::size_t bound)
      : num_tasks_(num_tasks), bound_(bound), history_(num_tasks) {
    frontier_.emplace_back(num_tasks);
    ref_stats_.peak_hypotheses = 1;
  }

  void observe_period(const Period& period) {
    const PeriodCandidates pc(period, num_tasks_);
    for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
      ++ref_stats_.messages_processed;
      const auto& cands = pc.candidates(msg);
      LinearScanList ref(bound_, ref_stats_);
      BoundedList keyed(bound_, keyed_stats_);
      std::vector<KeyedHypothesis> parents;
      for (const Hypothesis& h : frontier_) parents.emplace_back(h);
      for (const KeyedHypothesis& parent : parents) {
        for (const CandidatePair& p : cands) {
          if (parent.h.pair_used(p)) continue;
          ++ref_stats_.hypotheses_created;
          Hypothesis child = parent.h;
          child.assume(p, history_);
          ref.add(std::move(child));
          keyed.add_child(parent, p, history_);
        }
      }
      ASSERT_EQ(ref.empty(), keyed.empty());
      if (ref.empty()) {
        ++ref_stats_.unexplained_messages;
        continue;
      }
      std::vector<Hypothesis> expect = ref.take();
      std::vector<KeyedHypothesis> got;
      keyed.take(got);
      ASSERT_EQ(got.size(), expect.size()) << "message " << msg;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(got[i].h.d, expect[i].d) << "message " << msg << " #" << i;
        ASSERT_EQ(got[i].h.used, expect[i].used)
            << "message " << msg << " #" << i;
        ASSERT_EQ(got[i].weight, expect[i].d.weight());
        ASSERT_EQ(got[i].key, expect[i].key());
      }
      ASSERT_EQ(keyed_stats_.merges, ref_stats_.merges);
      frontier_ = std::move(expect);
      ref_stats_.peak_hypotheses =
          std::max(ref_stats_.peak_hypotheses, frontier_.size());
    }
    post_process_period(frontier_, pc);
    ++ref_stats_.periods_processed;
    history_.record_period(pc);
  }

  [[nodiscard]] const std::vector<Hypothesis>& frontier() const {
    return frontier_;
  }
  [[nodiscard]] const LearnStats& stats() const { return ref_stats_; }

 private:
  std::size_t num_tasks_;
  std::size_t bound_;
  CoExecutionHistory history_;
  std::vector<Hypothesis> frontier_;
  LearnStats ref_stats_;
  LearnStats keyed_stats_;
};

void expect_same_stats(const LearnStats& got, const LearnStats& want) {
  EXPECT_EQ(got.periods_processed, want.periods_processed);
  EXPECT_EQ(got.messages_processed, want.messages_processed);
  EXPECT_EQ(got.peak_hypotheses, want.peak_hypotheses);
  EXPECT_EQ(got.hypotheses_created, want.hypotheses_created);
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.unexplained_messages, want.unexplained_messages);
}

std::vector<Trace> seeded_scenarios() {
  std::vector<Trace> traces;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ScenarioConfig sc;
    sc.seed = seed;
    sc.num_periods = 12;
    sc.model.num_tasks = 8 + 2 * static_cast<std::size_t>(seed);
    traces.push_back(scenario_trace(sc));
  }
  return traces;
}

constexpr std::size_t kBounds[] = {1, 2, 4, 16, 64};

// The lockstep reference checks the keyed list after every message; the
// learner itself must then agree after every period.
TEST(BoundedListDifferential, MatchesLinearScanAfterEveryMessageAndPeriod) {
  for (const Trace& trace : seeded_scenarios()) {
    for (const std::size_t bound : kBounds) {
      SCOPED_TRACE("tasks " + std::to_string(trace.num_tasks()) + " bound " +
                   std::to_string(bound));
      Lockstep reference(trace.num_tasks(), bound);
      OnlineLearner learner(trace.num_tasks(), OnlineConfig{bound});
      for (std::size_t i = 0; i < trace.num_periods(); ++i) {
        reference.observe_period(trace.periods()[i]);
        ASSERT_FALSE(HasFatalFailure());
        learner.observe_period(trace.periods()[i]);
        const std::vector<Hypothesis>& got = learner.hypotheses();
        const std::vector<Hypothesis>& want = reference.frontier();
        ASSERT_EQ(got.size(), want.size()) << "period " << i;
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(got[k].d, want[k].d) << "period " << i << " #" << k;
          EXPECT_EQ(got[k].used, want[k].used) << "period " << i << " #" << k;
        }
        expect_same_stats(learner.stats(), reference.stats());
      }
    }
  }
}

// -- pinned result: learn_heuristic(bench::gm_trace()) -----------------------

TEST(BoundedListDigest, GmTraceResultMatchesLinearScanKernel) {
  // bench::gm_trace(): the E2 trace (GM case study, 27 periods, seed 7).
  SimConfig cfg;
  cfg.seed = 7;
  const Trace trace =
      simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);
  // Recorded from the linear-scan kernel.
  const struct {
    std::size_t bound;
    std::uint64_t digest;
    std::uint64_t merges;
  } pinned[] = {{1, 0x8bc9c4190ed875ebull, 1330},
                {16, 0x3300fe4cffd7a0ecull, 39977},
                {64, 0x194faf3aab016d7cull, 148629}};
  for (const auto& p : pinned) {
    const LearnResult r = learn_heuristic(trace, p.bound);
    EXPECT_EQ(r.stats.merges, p.merges) << "bound " << p.bound;
    EXPECT_EQ(test::learn_digest(r), p.digest) << "bound " << p.bound;
  }
}

// -- key set ------------------------------------------------------------------

Hypothesis hypothesis_with(std::size_t n, std::size_t a, std::size_t b,
                           DepValue v) {
  Hypothesis h(n);
  h.d.set(a, b, v);
  return h;
}

TEST(KeySet, DistinctHypothesesUnderOneKeyBothStay) {
  const std::vector<Hypothesis> hs = {
      hypothesis_with(3, 0, 1, DepValue::Forward),
      hypothesis_with(3, 1, 2, DepValue::Forward)};
  ASSERT_NE(hs[0], hs[1]);
  const auto equal_to = [&hs](const Hypothesis& h) {
    return [&hs, &h](std::uint32_t slot) { return hs[slot] == h; };
  };
  KeySet set;
  constexpr std::uint64_t kKey = 42;
  EXPECT_EQ(set.find(kKey, equal_to(hs[0])), KeySet::kNone);
  set.insert(kKey, 0);
  // Same key, different hypothesis: not a duplicate, so it goes in too.
  EXPECT_EQ(set.find(kKey, equal_to(hs[1])), KeySet::kNone);
  set.insert(kKey, 1);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.find(kKey, equal_to(hs[0])), 0u);
  EXPECT_EQ(set.find(kKey, equal_to(hs[1])), 1u);
}

TEST(KeySet, EqualHypothesisUnderItsKeyIsADuplicate) {
  const std::vector<Hypothesis> hs = {
      hypothesis_with(3, 0, 1, DepValue::Forward)};
  const Hypothesis copy = hs[0];
  KeySet set;
  set.insert(7, 0);
  EXPECT_EQ(set.find(7, [&](std::uint32_t slot) { return hs[slot] == copy; }),
            0u);
  // A different key never reaches the comparison.
  EXPECT_EQ(set.find(8, [&](std::uint32_t) { return true; }), KeySet::kNone);
}

TEST(KeySet, EraseKeepsEveryOtherEntryReachable) {
  // Colliding and wrapping probe runs: entries share home positions, then
  // are erased in an order that forces backward shifts across the run.
  KeySet set;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::uint64_t key = (i % 5) * 16 + 13;  // five keys, many slots each
    set.insert(key, i);
    live.emplace_back(key, i);
  }
  for (std::uint32_t round = 0; !live.empty(); ++round) {
    const std::size_t victim = (round * 7) % live.size();
    set.erase(live[victim].first, live[victim].second);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    ASSERT_EQ(set.size(), live.size());
    for (const auto& [key, slot] : live) {
      ASSERT_EQ(set.find(key, [slot](std::uint32_t s) { return s == slot; }),
                slot);
    }
  }
}

TEST(BoundedList, KeyedMembersCarryTheirFullKeyAndWeight) {
  // The O(1) key and weight of a child equal a from-scratch computation,
  // including after merges (bound 1 merges on every second child).
  const Trace trace = paper_example_trace();
  for (const std::size_t bound : {1u, 3u}) {
    CoExecutionHistory history(trace.num_tasks());
    LearnStats stats;
    std::vector<KeyedHypothesis> front;
    front.emplace_back(Hypothesis(trace.num_tasks()));
    BoundedList list(bound, stats);
    const PeriodCandidates pc(trace.periods()[0], trace.num_tasks());
    for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
      for (const KeyedHypothesis& h : front) {
        for (const CandidatePair& p : pc.candidates(msg)) {
          if (!h.h.pair_used(p)) list.add_child(h, p, history);
        }
      }
      list.take(front);
      for (const KeyedHypothesis& k : front) {
        EXPECT_EQ(k.weight, k.h.d.weight());
        EXPECT_EQ(k.key, k.h.key());
      }
    }
    if (bound == 1) {
      EXPECT_GT(stats.merges, 0u);
    }
  }
}

}  // namespace
}  // namespace bbmg
