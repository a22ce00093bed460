// Fault-tolerant trace ingestion, layer 1 (see DESIGN.md "Noise model &
// degradation semantics"): the paper's learner assumes perfectly segmented,
// well-formed traces, but a CAN logging device on a live vehicle bus (§3.4)
// drops frames, duplicates events, jitters clocks and truncates logs.
// TraceSanitizer classifies per-event defects in a raw period stream and,
// under a configurable policy, repairs what is safely repairable and
// quarantines only the corrupt *periods* — the rest of the trace survives.
//
// The repair rules are chosen so the degradation-aware learner
// (robust_online_learner.hpp) keeps a soundness guarantee against the clean
// trace:
//
//  * task executions are sacred — a repair never invents, drops or splits
//    an execution.  Dedup (drop an exact re-statement) and bounded clock
//    clamping are the only task-event repairs; anything else (orphan edges,
//    repeated executions, degenerate intervals) quarantines the period.
//    Hence in a repaired period the executed-task set equals the clean
//    period's, and in a quarantined period the observed-task set is a
//    subset of the clean period's (corruption hides events, it never
//    invents an execution of a task that has none).
//  * message occurrences are expendable — a damaged occurrence (orphan
//    rise/fall, id mismatch, overlap, degenerate interval) is discarded,
//    exactly as a CAN logging device discards errored frames.  A missing
//    message only makes the learner *more specific* (a pair stays ||),
//    which no positive example can refute.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/task_names.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace bbmg {

enum class SanitizePolicy : std::uint8_t {
  /// Any defect throws bbmg::Error (the historical loader behaviour).
  Strict,
  /// Repair safely repairable defects; quarantine periods with any other.
  Repair,
  /// No repairs: any defect quarantines the whole period.
  Quarantine,
};

[[nodiscard]] std::string_view sanitize_policy_name(SanitizePolicy p);

enum class DefectKind : std::uint8_t {
  /// Event time before its predecessor, within the skew tolerance (clamped).
  OutOfOrderTimestamp,
  /// Event time before its predecessor beyond the tolerance.
  ClockSkewExceeded,
  /// Second start for a task that is already running (dropped).
  DuplicateTaskStart,
  /// Second end for a task that already completed (dropped).
  DuplicateTaskEnd,
  /// Start for a task that already completed this period.
  RepeatedExecution,
  /// Start with no matching end by period close (truncated log).
  OrphanTaskStart,
  /// End with no preceding start (dropped rising edge of the execution).
  OrphanTaskEnd,
  /// Rise superseded by another rise, or still open at period close
  /// (dropped falling edge; the occurrence is discarded).
  OrphanMsgRise,
  /// Fall with no open rise (dropped rising edge; dropped).
  OrphanMsgFall,
  /// Fall id differs from the open rise id (both edges discarded).
  MsgIdMismatch,
  /// Message rises before the previous occurrence fell (later one dropped).
  OverlappingMessages,
  /// start >= end after clamping (task: fatal; message: occurrence dropped).
  DegenerateInterval,
  /// Activity spans more than the configured period length.
  PeriodOverrun,
  /// Task event with an out-of-range task index.
  UnknownTask,
  /// No complete task execution survives in the period.
  EmptyPeriod,
  /// A repaired period still failed TraceBuilder re-validation.
  ResidualViolation,
};

/// Number of DefectKind enumerators (metrics register one counter each).
inline constexpr std::size_t kNumDefectKinds =
    static_cast<std::size_t>(DefectKind::ResidualViolation) + 1;

[[nodiscard]] std::string_view defect_kind_name(DefectKind k);

/// Stable snake_case identifier (metric labels, machine-readable output).
[[nodiscard]] std::string_view defect_kind_slug(DefectKind k);

struct Defect {
  DefectKind kind{DefectKind::OutOfOrderTimestamp};
  /// Index of the period in the raw input stream.
  std::size_t period_index{0};
  /// Best-effort index of the offending event within the raw period.
  std::size_t event_index{0};
  /// True iff the defect was repaired in place (policy Repair only);
  /// false means it quarantined the period.
  bool repaired{false};
};

struct SanitizeConfig {
  SanitizePolicy policy{SanitizePolicy::Repair};
  /// Backwards timestamp jumps up to this are treated as logger clock
  /// jitter and clamped to the running maximum; larger jumps are fatal.
  TimeNs clock_skew_tolerance{50 * kTimeNsPerUs};
  /// 0 = unknown; otherwise events spanning more than this from the first
  /// event of the period flag PeriodOverrun (fatal).
  TimeNs period_length{0};
};

struct SanitizedPeriod {
  /// The sanitized period, or nullopt if it was quarantined.
  std::optional<Period> period;
  /// Tasks with at least one raw event this period — execution evidence
  /// that survives even when the period itself is quarantined; the
  /// degradation-aware learner weakens claims against this mask.
  std::vector<bool> observed_tasks;
  std::vector<Defect> defects;
  std::size_t repairs{0};
  [[nodiscard]] bool quarantined() const { return !period.has_value(); }
};

struct SanitizeResult {
  /// The surviving trace: clean and repaired periods, original order.
  Trace trace;
  /// Raw-stream indices of the periods kept in `trace` (parallel to it).
  std::vector<std::size_t> kept;
  /// Raw-stream indices of quarantined periods and their observed-task
  /// masks (parallel vectors).
  std::vector<std::size_t> quarantined;
  std::vector<std::vector<bool>> quarantined_observed;
  std::vector<Defect> defects;
  std::size_t repairs{0};
  [[nodiscard]] std::size_t periods_seen() const {
    return kept.size() + quarantined.size();
  }
  [[nodiscard]] double quarantine_rate() const {
    const std::size_t n = periods_seen();
    return n == 0 ? 0.0
                  : static_cast<double>(quarantined.size()) /
                        static_cast<double>(n);
  }
};

class TraceSanitizer {
 public:
  explicit TraceSanitizer(TaskNames task_names,
                          SanitizeConfig config = {});

  [[nodiscard]] const SanitizeConfig& config() const { return config_; }
  [[nodiscard]] const TaskNames& task_names() const {
    return task_names_;
  }

  /// Sanitize one raw period.  Under Strict the first defect throws
  /// bbmg::Error; otherwise all defects are collected and the period is
  /// either repaired or quarantined.
  [[nodiscard]] SanitizedPeriod sanitize_period(
      const std::vector<Event>& events, std::size_t period_index = 0) const;

  /// Sanitize a whole raw stream into a valid Trace plus bookkeeping.
  [[nodiscard]] SanitizeResult sanitize(
      const std::vector<std::vector<Event>>& raw_periods) const;

 private:
  TaskNames task_names_;
  SanitizeConfig config_;
};

/// Flatten a (valid) trace back to the raw per-period event lists the
/// sanitizer and the fault injector operate on.
[[nodiscard]] std::vector<std::vector<Event>> to_raw_periods(
    const Trace& trace);

}  // namespace bbmg
