#include "obs/trace_context.hpp"

#include <atomic>
#include <chrono>

#include "common/rng.hpp"

namespace bbmg::obs {

namespace {

thread_local TraceContext t_current{};

std::uint64_t process_seed() {
  // Wall-clock nanoseconds mixed with an address from this mapping: two
  // processes minting ids in the same nanosecond still diverge.
  static const std::uint64_t seed = mix64(
      static_cast<std::uint64_t>(std::chrono::system_clock::now()
                                     .time_since_epoch()
                                     .count()) ^
      reinterpret_cast<std::uintptr_t>(&t_current));
  return seed;
}

}  // namespace

std::uint64_t mint_id() {
  static std::atomic<std::uint64_t> next{1};
  const std::uint64_t id = mix64(
      process_seed() + next.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

TraceContext current_trace() { return t_current; }

TraceScope::TraceScope(TraceContext ctx) : saved_(t_current) {
  t_current = ctx;
}

TraceScope::~TraceScope() { t_current = saved_; }

std::uint64_t record_stage(SpanRing& ring, const char* name,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           const TraceContext& ctx, FlowDir flow) {
  if (!ctx.active() || !ring.enabled()) return 0;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.duration_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  rec.thread = current_thread_index();
  rec.trace_id = ctx.trace_id;
  rec.span_id = mint_id();
  rec.parent_id = ctx.span_id;
  rec.flow = static_cast<std::uint8_t>(flow);
  ring.record(rec);
  return rec.span_id;
}

std::uint64_t record_current_stage(const char* name, std::uint64_t start_ns,
                                   std::uint64_t end_ns, FlowDir flow) {
  return record_stage(SpanRing::instance(), name, start_ns, end_ns,
                      current_trace(), flow);
}

}  // namespace bbmg::obs
