#include "core/key_set.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bbmg {

void KeySet::insert(std::uint64_t key, std::uint32_t slot) {
  if ((size_ + 1) * 2 > cells_.size()) grow();
  std::size_t i = key & mask_;
  while (cells_[i].slot != kNone) i = (i + 1) & mask_;
  cells_[i] = Cell{key, slot};
  ++size_;
}

void KeySet::erase(std::uint64_t key, std::uint32_t slot) {
  std::size_t i = key & mask_;
  while (cells_[i].key != key || cells_[i].slot != slot) {
    BBMG_ASSERT(cells_[i].slot != kNone, "key set: erasing an absent entry");
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home position does not lie in (hole, j].
  for (std::size_t j = (i + 1) & mask_; cells_[j].slot != kNone;
       j = (j + 1) & mask_) {
    const std::size_t home = cells_[j].key & mask_;
    const bool stays =
        i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (stays) continue;
    cells_[i] = cells_[j];
    i = j;
  }
  cells_[i].slot = kNone;
  --size_;
}

void KeySet::clear() {
  if (size_ == 0) return;
  for (Cell& c : cells_) c.slot = kNone;
  size_ = 0;
}

void KeySet::grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(std::max<std::size_t>(16, old.size() * 2), Cell{});
  mask_ = cells_.size() - 1;
  size_ = 0;
  for (const Cell& c : old) {
    if (c.slot != kNone) insert(c.key, c.slot);
  }
}

}  // namespace bbmg
