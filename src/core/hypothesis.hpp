// A hypothesis of the version-space learner: a dependency function plus the
// sender->receiver assumptions made so far in the *current* period.
//
// The assumption set enforces the paper's condition 3 (§3.1): between any
// two data-dependent tasks there is at most one message per period, so a
// pair assumed once cannot explain a second message in the same period.
// Assumptions are discarded at every period boundary by the post-processing
// step; only the matrix persists across periods.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "core/candidates.hpp"
#include "lattice/dependency_matrix.hpp"

namespace bbmg {

/// What Hypothesis::assume changes — two cells and one assumption bit —
/// computed without applying it, so a learner can key and dedup a child
/// before copying its parent.
struct Assumption {
  std::size_t sender{0};
  std::size_t receiver{0};
  std::size_t fwd_cell{0};  // sender * n + receiver; also the assumed bit
  std::size_t bwd_cell{0};  // receiver * n + sender
  DepValue old_fwd{DepValue::Parallel};
  DepValue fwd{DepValue::Parallel};
  DepValue old_bwd{DepValue::Parallel};
  DepValue bwd{DepValue::Parallel};
};

struct Hypothesis {
  DependencyMatrix d;
  DynamicBitset used;  // num_tasks^2 bits; bit s*n+r = pair (s,r) assumed

  Hypothesis() = default;
  explicit Hypothesis(std::size_t num_tasks)
      : d(num_tasks), used(num_tasks * num_tasks) {}
  Hypothesis(DependencyMatrix matrix, DynamicBitset assumptions)
      : d(std::move(matrix)), used(std::move(assumptions)) {}

  /// Minimal generalization admitting a message sent from `s` to `r`
  /// (paper §3.1): d(s,r) is raised just enough to permit a forward
  /// dependency, d(r,s) just enough to permit a backward one, and the pair
  /// is recorded as assumed.
  ///
  /// `history` is the trace-level CoExecutionHistory of the already
  /// completed periods.  It keeps the generalization minimal *and* correct:
  /// raising d(s,r) to a value that newly *requires* determination asserts
  /// "whenever s executes, r executes too" — which any earlier period where
  /// s ran without r refutes, so the requirement is weakened to its
  /// conditional form on the spot.  This is what makes the paper's d81
  /// carry d(t1,t3) = ->? rather than -> when the (t1,t3) message is first
  /// seen in period 2 (t1 ran alone with respect to t3 in period 1), while
  /// d(t3,t1) stays <- (t3 never ran without t1).
  template <class CoExecutionHistory>
  void assume(const CandidatePair& pair, const CoExecutionHistory& history) {
    apply(plan_assume(pair, history));
  }

  /// The change assume(pair, history) would make, without making it.
  template <class CoExecutionHistory>
  [[nodiscard]] Assumption plan_assume(
      const CandidatePair& pair, const CoExecutionHistory& history) const {
    Assumption a;
    a.sender = pair.sender.index();
    a.receiver = pair.receiver.index();
    const std::size_t s = a.sender;
    const std::size_t r = a.receiver;
    a.fwd_cell = s * d.num_tasks() + r;
    a.bwd_cell = r * d.num_tasks() + s;

    a.old_fwd = d.at(s, r);
    a.fwd = dep_generalize_permit_forward(a.old_fwd);
    if (a.fwd != a.old_fwd && dep_requires_forward(a.fwd) &&
        history.ran_without(s, r)) {
      a.fwd = dep_weaken_forward_requirement(a.fwd);
    }

    a.old_bwd = d.at(r, s);
    a.bwd = dep_generalize_permit_backward(a.old_bwd);
    if (a.bwd != a.old_bwd && dep_requires_backward(a.bwd) &&
        history.ran_without(r, s)) {
      a.bwd = dep_weaken_backward_requirement(a.bwd);
    }
    return a;
  }

  void apply(const Assumption& a) {
    d.set(a.sender, a.receiver, a.fwd);
    d.set(a.receiver, a.sender, a.bwd);
    used.set(a.fwd_cell);
  }

  /// *this == `parent` after parent.apply(a), decided without building the
  /// child.  Both hypotheses must have the same task count.
  [[nodiscard]] bool equals_assumed(const Hypothesis& parent,
                                    const Assumption& a) const {
    const std::vector<std::uint64_t>& mine = used.words();
    const std::vector<std::uint64_t>& theirs = parent.used.words();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const std::uint64_t bit =
          i == (a.fwd_cell >> 6) ? 1ull << (a.fwd_cell & 63) : 0;
      if (mine[i] != (theirs[i] | bit)) return false;
    }
    const std::vector<DepValue>& x = d.cells();
    const std::vector<DepValue>& p = parent.d.cells();
    if (x[a.fwd_cell] != a.fwd || x[a.bwd_cell] != a.bwd) return false;
    const std::size_t lo = std::min(a.fwd_cell, a.bwd_cell);
    const std::size_t hi = std::max(a.fwd_cell, a.bwd_cell);
    return std::equal(x.begin(), x.begin() + lo, p.begin()) &&
           std::equal(x.begin() + lo + 1, x.begin() + hi, p.begin() + lo + 1) &&
           std::equal(x.begin() + hi + 1, x.end(), p.begin() + hi + 1);
  }

  [[nodiscard]] bool pair_used(const CandidatePair& pair) const {
    return used.test(pair.pair_index);
  }

  /// Zobrist term of assumption bit `i`, disjoint from every
  /// DependencyMatrix::cell_key (cell terms use values 1..6 in the low
  /// three bits, assumption bits use 7).
  [[nodiscard]] static std::uint64_t used_key(std::size_t i) {
    return mix64(i * 8 + 7);
  }

  /// Full Zobrist key: the matrix's cell terms XOR the assumed bits' terms.
  /// O(t^2); the learners derive children's keys in O(1) (child_key).
  [[nodiscard]] std::uint64_t key() const {
    std::uint64_t k = d.zobrist_key();
    const std::vector<std::uint64_t>& words = used.words();
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (std::uint64_t w = words[i]; w != 0; w &= w - 1) {
        k ^= used_key(i * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
      }
    }
    return k;
  }

  friend bool operator==(const Hypothesis& a, const Hypothesis& b) {
    return a.d == b.d && a.used == b.used;
  }
};

/// A hypothesis with its lattice weight (DependencyMatrix::weight) and its
/// Zobrist key (Hypothesis::key), the form the learners branch on.
struct KeyedHypothesis {
  Hypothesis h;
  std::uint64_t weight{0};
  std::uint64_t key{0};

  KeyedHypothesis() = default;
  /// Computes weight and key from scratch (O(t^2)).
  explicit KeyedHypothesis(Hypothesis hyp)
      : h(std::move(hyp)), weight(h.d.weight()), key(h.key()) {}
};

struct ChildKey {
  std::uint64_t weight{0};
  std::uint64_t key{0};
};

/// Weight and key of parent.h after apply(a), derived in O(1) from the
/// parent's: `a` changes two cells and sets one assumption bit, so the
/// weight moves by the two cells' distance delta and the key XORs out
/// their old terms and XORs in their new terms and the bit's.
[[nodiscard]] inline ChildKey child_key(const KeyedHypothesis& parent,
                                        const Assumption& a) {
  return ChildKey{
      parent.weight - dep_distance(a.old_fwd) - dep_distance(a.old_bwd) +
          dep_distance(a.fwd) + dep_distance(a.bwd),
      parent.key ^ DependencyMatrix::cell_key(a.fwd_cell, a.old_fwd) ^
          DependencyMatrix::cell_key(a.fwd_cell, a.fwd) ^
          DependencyMatrix::cell_key(a.bwd_cell, a.old_bwd) ^
          DependencyMatrix::cell_key(a.bwd_cell, a.bwd) ^
          Hypothesis::used_key(a.fwd_cell)};
}

}  // namespace bbmg
