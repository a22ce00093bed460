// In-process observability, layer 3: causal trace context.
//
// A TraceContext names one causal chain (a period's journey from the
// producing client through decode, queue, learner apply, WAL, fsync, ack)
// with a 64-bit trace id, and carries the span id of the chain's current
// stage so the next stage can record itself as a child.  Ids are minted
// locally (per-process counter mixed through splitmix64 with a per-process
// seed) — globally unique enough for a tracing UI, with zero reserved as
// "no context".
//
// Context travels two ways:
//   * explicitly, through function parameters and the wire envelope
//     (serve/protocol.hpp, TraceContextMsg) — the cross-process path;
//   * implicitly, through a thread-local current context (TraceScope) —
//     so deep layers (the WAL writer's fsync, say) can attribute their
//     stage spans without threading a parameter through every signature.
#pragma once

#include <cstdint>

#include "obs/span.hpp"

namespace bbmg::obs {

struct TraceContext {
  /// Causal-chain id shared by every span of one traced request.
  std::uint64_t trace_id{0};
  /// Span id of the current stage — the parent of any child span recorded
  /// under this context.
  std::uint64_t span_id{0};

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

/// Mint a fresh nonzero 64-bit id (trace or span).  Thread-safe.
[[nodiscard]] std::uint64_t mint_id();

/// The calling thread's current trace context ({0,0} when none is set).
[[nodiscard]] TraceContext current_trace();

/// RAII setter for the thread-local current context; restores the previous
/// context on destruction, so scopes nest.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

/// Cross-process link directions for a span's flow event in the Chrome
/// export: an Out span emits a flow-start arrow at its end, an In span
/// binds the matching flow-finish at its start (flow id == trace id).
enum class FlowDir : std::uint8_t { None = 0, Out = 1, In = 2 };

/// Record one completed stage span [start_ns, end_ns) under `ctx` into
/// `ring`: mints the span's own id, sets parent = ctx.span_id, and returns
/// the minted id so callers can chain children.  No-op (returns 0) when the
/// context is inactive or the ring is disabled.
std::uint64_t record_stage(SpanRing& ring, const char* name,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           const TraceContext& ctx,
                           FlowDir flow = FlowDir::None);

/// record_stage against the process-wide ring, under the thread-local
/// current context — the deep-layer form (WAL append/fsync).
std::uint64_t record_current_stage(const char* name, std::uint64_t start_ns,
                                   std::uint64_t end_ns,
                                   FlowDir flow = FlowDir::None);

}  // namespace bbmg::obs
