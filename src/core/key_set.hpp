// The one duplicate index of every learner: an open-addressed multiset of
// (key, slot) pairs, keyed on a 64-bit Zobrist key (Hypothesis::key,
// DependencyMatrix::zobrist_key).
//
// A key only narrows the search.  Distinct hypotheses may share one, so
// find() runs the caller's full equality test on every slot stored under
// the probed key, and a hit means "equal", never just "same key".  Callers
// insert in frontier order and drop a candidate on a hit, so the first
// occurrence of every hypothesis is the one kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bbmg {

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

}  // namespace bbmg
