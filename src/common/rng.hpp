// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in bbmodelgen (disjunction-node choices, task
// execution times, random model generation) flows through Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** seeded via SplitMix64 — fast, high quality, and trivially
// portable, unlike std::mt19937 whose seeding is easy to get wrong.
#pragma once

#include <cstdint>
#include <vector>

namespace bbmg {

/// Stateless SplitMix64 mix: the generator's output for state `x`.  Cheap
/// enough for hot-path hashing (the learner's Zobrist keys).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// SplitMix64 step; used for seeding.
std::uint64_t splitmix64(std::uint64_t& state);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) with rejection sampling (no modulo bias).
  /// bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// A fresh generator whose stream is independent of this one.
  Rng split();

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element index of a non-empty container size.
  std::size_t pick_index(std::size_t size);

  /// A uniformly random non-empty subset of {0,..,n-1}; n must be >= 1 and
  /// <= 63.  Used by disjunction nodes choosing which successors to message.
  std::uint64_t nonempty_subset_mask(std::size_t n);

 private:
  std::uint64_t s_[4];
};

}  // namespace bbmg
