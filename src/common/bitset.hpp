// A small dynamic bitset.
//
// The learner tracks, per hypothesis and per period, the set of assumed
// sender->receiver pairs as a t*t bitset (paper §3.1 condition 3: a pair may
// carry at most one message per period).  std::vector<bool> is too slow for
// the equality/merge operations the learners run per child, so we keep an
// explicit word array (Hypothesis::key walks its set bits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bbmg {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return bits_; }

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) { words_[i >> 6] |= (1ull << (i & 63)); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  [[nodiscard]] bool any() const {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }

  /// In-place union; both operands must have the same size.
  void unite(const DynamicBitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// In-place union that reports every bit it newly sets to on_new(i).
  template <class OnNew>
  void unite(const DynamicBitset& other, OnNew&& on_new) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t fresh = other.words_[i] & ~words_[i];
      words_[i] |= fresh;
      for (; fresh != 0; fresh &= fresh - 1) {
        on_new(i * 64 + static_cast<std::size_t>(__builtin_ctzll(fresh)));
      }
    }
  }

  /// In-place intersection; both operands must have the same size.
  void intersect(const DynamicBitset& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// True iff every bit of this is also set in other.
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    return true;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const DynamicBitset& a, const DynamicBitset& b) {
    return !(a == b);
  }

  /// Raw word storage, exposed for the durable snapshot codec
  /// (src/durable): a bitset round-trips as (size, words).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

  /// Rebuild a bitset from its serialized (size, words) form; `words` must
  /// have exactly (bits + 63) / 64 entries.
  [[nodiscard]] static DynamicBitset from_words(
      std::size_t bits, std::vector<std::uint64_t> words) {
    DynamicBitset b;
    b.bits_ = bits;
    b.words_ = std::move(words);
    return b;
  }

 private:
  std::size_t bits_{0};
  std::vector<std::uint64_t> words_;
};

}  // namespace bbmg
