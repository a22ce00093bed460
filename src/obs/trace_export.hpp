// Chrome trace export: render spans as the JSON array format understood
// by chrome://tracing and https://ui.perfetto.dev.
//
// Two layers:
//   * SpanRecord (the in-process ring's POD) renders as one complete
//     ("ph":"X") event per span — the single-process debugging surface;
//   * ExportSpan adds a process id and a dynamic name, so spans pulled
//     from another process over the wire (TraceDump) can be merged with
//     local ones into one causally-linked timeline.  Spans carrying trace
//     ids emit their ids as event args, and spans marked FlowDir::Out/In
//     additionally emit Chrome flow events ("ph":"s"/"f", id == trace id)
//     — the arrows that connect a client's send to the server's stages
//     across the process boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace bbmg::obs {

/// A span ready for export: SpanRecord plus a process id and an owned
/// name (wire spans do not share the process's static strings).
struct ExportSpan {
  std::string name;
  std::uint32_t pid{1};
  std::uint32_t tid{0};
  std::uint64_t start_ns{0};
  std::uint64_t duration_ns{0};
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_id{0};
  std::uint8_t flow{0};  // FlowDir
};

/// Lift ring records into export form under one process id, optionally
/// shifting timestamps by `offset_ns` (clock alignment across processes;
/// negative shifts clamp at zero).
[[nodiscard]] std::vector<ExportSpan> to_export_spans(
    const std::vector<SpanRecord>& spans, std::uint32_t pid,
    std::int64_t offset_ns = 0);

[[nodiscard]] std::string to_chrome_trace_json(
    const std::vector<ExportSpan>& spans);
[[nodiscard]] std::string to_chrome_trace_json(
    const std::vector<SpanRecord>& spans);

/// Convenience: drain the ring and write the JSON to `path`; returns the
/// number of spans exported.  Throws bbmg::Error if the file cannot be
/// written.
std::size_t export_chrome_trace(SpanRing& ring, const std::string& path);

/// Write an already-merged span batch to `path` (the client/server merged
/// export).  Throws bbmg::Error if the file cannot be written.
void write_chrome_trace(const std::vector<ExportSpan>& spans,
                        const std::string& path);

}  // namespace bbmg::obs
