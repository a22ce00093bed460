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
// weight and key come from its parent in O(1) (child_key), and one probe
// of the KeySet decides whether a full O(t^2) comparison is needed at all.
// Only a new child is copied, into a recycled slot.  The two least members pop off a binary
// heap ordered by (weight, insertion sequence), so ties pop in insertion
// order and take() hands back exactly the order a sorted list would keep —
// frontier order decides the next merges, so it is part of the result.
#pragma once

#include <cstdint>
#include <vector>

#include "core/candidates.hpp"
#include "core/history.hpp"
#include "core/hypothesis.hpp"
#include "core/key_set.hpp"
#include "core/learn_result.hpp"
#include "obs/profiler.hpp"

namespace bbmg {

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
