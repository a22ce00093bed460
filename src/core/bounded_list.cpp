#include "core/bounded_list.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bbmg {

namespace {

/// Min-heap order: lighter first, then earlier insertion (std heaps are
/// max-heaps, hence the inverted comparison).
constexpr auto kHeavier = [](const auto& x, const auto& y) {
  return x.weight != y.weight ? x.weight > y.weight : x.seq > y.seq;
};

}  // namespace

void BoundedList::add_child(const KeyedHypothesis& parent,
                            const CandidatePair& pair,
                            const CoExecutionHistory& history) {
  const Assumption a = parent.h.plan_assume(pair, history);
  const ChildKey ck = child_key(parent, a);
  const auto same = [&](std::uint32_t s) {
    return slots_[s].weight == ck.weight &&
           slots_[s].h.equals_assumed(parent.h, a);
  };
  if (keys_.find(ck.key, same) != KeySet::kNone) return;

  const std::uint32_t slot = acquire_slot();
  KeyedHypothesis& child = slots_[slot];
  child.h = parent.h;  // copy-assign: reuses the slot's buffers
  child.h.apply(a);
  child.weight = ck.weight;
  child.key = ck.key;
  push(slot);
  while (heap_.size() > bound_) merge_two_least();
}

void BoundedList::take(std::vector<KeyedHypothesis>& out) {
  std::sort(heap_.begin(), heap_.end(),
            [](const auto& x, const auto& y) { return kHeavier(y, x); });
  if (out.size() < heap_.size()) out.resize(heap_.size());
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    std::swap(out[i], slots_[heap_[i].slot]);
  }
  out.resize(heap_.size());
  free_.clear();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) free_.push_back(s);
  heap_.clear();
  keys_.clear();
}

std::uint32_t BoundedList::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void BoundedList::push(std::uint32_t slot) {
  const KeyedHypothesis& kh = slots_[slot];
  keys_.insert(kh.key, slot);
  heap_.push_back(HeapEntry{kh.weight, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), kHeavier);
}

std::uint32_t BoundedList::pop_least() {
  std::pop_heap(heap_.begin(), heap_.end(), kHeavier);
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  keys_.erase(slots_[slot].key, slot);
  return slot;
}

void BoundedList::merge_two_least() {
  const obs::PhaseProfiler::Scope timed(merges_);
  BBMG_ASSERT(heap_.size() >= 2, "merge requires two hypotheses");
  const std::uint32_t ia = pop_least();
  const std::uint32_t ib = pop_least();
  KeyedHypothesis& merged = slots_[ia];
  const KeyedHypothesis& b = slots_[ib];
  merged.h.d.lub_assign(b.h.d, merged.weight, merged.key);
  merged.h.used.unite(b.h.used, [&merged](std::size_t bit) {
    merged.key ^= Hypothesis::used_key(bit);
  });
  free_.push_back(ib);
  ++stats_.merges;
  const auto same = [&](std::uint32_t s) {
    return slots_[s].weight == merged.weight && slots_[s].h == merged.h;
  };
  if (keys_.find(merged.key, same) != KeySet::kNone) {
    free_.push_back(ia);
    return;
  }
  push(ia);
}

}  // namespace bbmg
