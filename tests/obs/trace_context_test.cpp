// Causal trace context (obs/trace_context.hpp): id minting, the
// thread-local TraceScope, and record_stage's parent/child wiring.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace_context.hpp"

namespace bbmg::obs {
namespace {

TEST(TraceContext, MintedIdsAreNonzeroAndDistinct) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = mint_id();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(TraceContext, MintedIdsAreDistinctAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) per_thread[t].push_back(mint_id());
    });
  }
  for (std::thread& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TraceContext, ScopeSetsAndRestoresNested) {
  EXPECT_FALSE(current_trace().active());
  {
    TraceScope outer({11, 22});
    EXPECT_EQ(current_trace().trace_id, 11u);
    EXPECT_EQ(current_trace().span_id, 22u);
    {
      TraceScope inner({33, 44});
      EXPECT_EQ(current_trace().trace_id, 33u);
    }
    EXPECT_EQ(current_trace().trace_id, 11u);
  }
  EXPECT_FALSE(current_trace().active());
}

TEST(RecordStage, ChildCarriesParentAndTraceId) {
  SpanRing ring(16);
  ring.set_enabled(true);
  const TraceContext ctx{mint_id(), mint_id()};
  const std::uint64_t child =
      record_stage(ring, "stage.a", 100, 250, ctx, FlowDir::In);
  EXPECT_NE(child, 0u);
  const auto records = ring.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "stage.a");
  EXPECT_EQ(records[0].trace_id, ctx.trace_id);
  EXPECT_EQ(records[0].span_id, child);
  EXPECT_EQ(records[0].parent_id, ctx.span_id);
  EXPECT_EQ(records[0].flow, static_cast<std::uint8_t>(FlowDir::In));
  EXPECT_EQ(records[0].start_ns, 100u);
  EXPECT_EQ(records[0].duration_ns, 150u);
}

TEST(RecordStage, ChainsChildrenThroughReturnedIds) {
  SpanRing ring(16);
  ring.set_enabled(true);
  const TraceContext root{mint_id(), mint_id()};
  const std::uint64_t a = record_stage(ring, "a", 0, 1, root);
  const std::uint64_t b =
      record_stage(ring, "b", 1, 2, TraceContext{root.trace_id, a});
  const auto records = ring.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].parent_id, a);
  EXPECT_EQ(records[1].span_id, b);
  EXPECT_EQ(records[1].trace_id, root.trace_id);
}

TEST(RecordStage, InactiveContextOrDisabledRingIsANoOp) {
  SpanRing ring(16);
  ring.set_enabled(true);
  EXPECT_EQ(record_stage(ring, "x", 0, 1, TraceContext{}), 0u);
  EXPECT_TRUE(ring.records().empty());
  ring.set_enabled(false);
  EXPECT_EQ(record_stage(ring, "x", 0, 1, TraceContext{1, 2}), 0u);
  EXPECT_TRUE(ring.records().empty());
}

TEST(RecordStage, CurrentStageUsesTheThreadLocalContext) {
  SpanRing& ring = SpanRing::instance();
  const bool was_enabled = ring.enabled();
  ring.set_enabled(true);
  ring.clear();
  // No current context: nothing recorded.
  EXPECT_EQ(record_current_stage("deep", 5, 9), 0u);
  EXPECT_TRUE(ring.records().empty());
  {
    TraceScope scope({77, 88});
    const std::uint64_t id = record_current_stage("deep", 5, 9);
    EXPECT_NE(id, 0u);
    const auto records = ring.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].trace_id, 77u);
    EXPECT_EQ(records[0].parent_id, 88u);
  }
  ring.clear();
  ring.set_enabled(was_enabled);
}

}  // namespace
}  // namespace bbmg::obs
