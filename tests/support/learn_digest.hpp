// FNV-1a digest of a LearnResult: the ordered result matrices plus every
// LearnStats count, so a pinned digest catches any change in a learner's
// output or its work counts (wall time excluded).
#pragma once

#include <cstdint>

#include "core/learn_result.hpp"

namespace bbmg::test {

inline std::uint64_t learn_digest(const LearnResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  add(r.hypotheses.size());
  for (const DependencyMatrix& m : r.hypotheses) {
    for (std::size_t a = 0; a < m.num_tasks(); ++a) {
      for (std::size_t b = 0; b < m.num_tasks(); ++b) {
        add(static_cast<std::uint64_t>(m.at(a, b)));
      }
    }
  }
  const LearnStats& s = r.stats;
  for (const std::uint64_t v :
       {std::uint64_t{s.periods_processed}, std::uint64_t{s.messages_processed},
        std::uint64_t{s.peak_hypotheses}, s.hypotheses_created, s.merges,
        s.unexplained_messages}) {
    add(v);
  }
  for (const std::size_t n : s.frontier_after_period) add(n);
  return h;
}

}  // namespace bbmg::test
