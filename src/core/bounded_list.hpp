// The bounded, weight-ascending hypothesis list of §3.2, with duplicate
// detection keyed on a 64-bit Zobrist hash.
//
// Adding a hypothesis beyond the bound merges the two least-weight (most
// specific) members into their least upper bound, with the union of their
// assumption sets (see DESIGN.md §2 for this choice).  Members keep set
// semantics: a child equal to a current member is dropped, because
// duplicates would burn bound slots for nothing (the exact learner unifies
// eagerly too).
//
// Cost per child (DESIGN.md "Keyed duplicate detection"): the child's
// weight and key come from its parent in O(1) — `assume` changes two cells
// and one bit — and one probe of a small open-addressed key set decides
// whether a full O(t^2) comparison is needed at all.  Only a new child is
// copied, into a recycled slot.  The two least members pop off a binary
// heap ordered by (weight, insertion sequence), so ties pop in insertion
// order and take() hands back exactly the order a sorted list would keep —
// frontier order decides the next merges, so it is part of the result.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidates.hpp"
#include "core/history.hpp"
#include "core/hypothesis.hpp"
#include "core/learn_result.hpp"
#include "obs/profiler.hpp"

namespace bbmg {

/// A hypothesis with its lattice weight (DependencyMatrix::weight) and its
/// Zobrist key (Hypothesis::key).
struct KeyedHypothesis {
  Hypothesis h;
  std::uint64_t weight{0};
  std::uint64_t key{0};

  KeyedHypothesis() = default;
  /// Computes weight and key from scratch (O(t^2)).
  explicit KeyedHypothesis(Hypothesis hyp)
      : h(std::move(hyp)), weight(h.d.weight()), key(h.key()) {}
};

/// Open-addressed multiset of (key, slot) pairs with linear probing.  Keys
/// are caller-supplied, so distinct hypotheses may share one; find() runs
/// the caller's equality test on every slot stored under the probed key.
class KeySet {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// First slot stored under `key` for which same(slot) holds, or kNone.
  template <class Same>
  [[nodiscard]] std::uint32_t find(std::uint64_t key, Same&& same) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = key & mask_; cells_[i].slot != kNone;
         i = (i + 1) & mask_) {
      if (cells_[i].key == key && same(cells_[i].slot)) return cells_[i].slot;
    }
    return kNone;
  }

  void insert(std::uint64_t key, std::uint32_t slot);
  /// Remove the (key, slot) pair; it must be present.
  void erase(std::uint64_t key, std::uint32_t slot);
  void clear();
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Cell {
    std::uint64_t key{0};
    std::uint32_t slot{kNone};
  };
  void grow();

  std::vector<Cell> cells_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

class BoundedList {
 public:
  /// `merges` times every merge as a nested profiler phase; null (an
  /// unsampled period) leaves the merge path free of clock reads.
  BoundedList(std::size_t bound, LearnStats& stats,
              obs::PhaseProfiler::Nested* merges = nullptr)
      : bound_(bound), stats_(stats), merges_(merges) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Add the child parent.h.assume(pair, history), unless an equal member
  /// exists; merges the two least members while the list exceeds the bound.
  /// The pair must not be assumed in `parent` yet.
  void add_child(const KeyedHypothesis& parent, const CandidatePair& pair,
                 const CoExecutionHistory& history);

  /// Replace `out` with the members in weight order, ties in insertion
  /// order, and empty the list.  out's previous entries become the list's
  /// spare slots, whose buffers the next message's children reuse.
  void take(std::vector<KeyedHypothesis>& out);

 private:
  struct HeapEntry {
    std::uint64_t weight;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  std::uint32_t acquire_slot();
  void push(std::uint32_t slot);
  std::uint32_t pop_least();
  void merge_two_least();

  std::size_t bound_;
  LearnStats& stats_;
  obs::PhaseProfiler::Nested* merges_{nullptr};
  std::vector<KeyedHypothesis> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;  // min-heap on (weight, seq)
  KeySet keys_;
  std::uint64_t next_seq_{0};
};

}  // namespace bbmg
