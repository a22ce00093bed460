#include "common/rng.hpp"

#include "common/error.hpp"

namespace bbmg {

std::uint64_t splitmix64(std::uint64_t& state) {
  const std::uint64_t z = state;
  state += 0x9e3779b97f4a7c15ull;
  return mix64(z);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  BBMG_REQUIRE(bound > 0, "next_below bound must be positive");
  // Lemire-style rejection: accept unless in the biased remainder zone.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  BBMG_REQUIRE(lo <= hi, "next_int requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 high-quality bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ull); }

std::size_t Rng::pick_index(std::size_t size) {
  BBMG_REQUIRE(size > 0, "pick_index on empty range");
  return static_cast<std::size_t>(next_below(size));
}

std::uint64_t Rng::nonempty_subset_mask(std::size_t n) {
  BBMG_REQUIRE(n >= 1 && n <= 63, "subset mask supports 1..63 elements");
  const std::uint64_t full = (1ull << n) - 1;
  for (;;) {
    const std::uint64_t m = next_u64() & full;
    if (m != 0) return m;
  }
}

}  // namespace bbmg
