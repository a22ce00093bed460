#include "robust/sanitizer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bbmg {

std::string_view sanitize_policy_name(SanitizePolicy p) {
  switch (p) {
    case SanitizePolicy::Strict:
      return "strict";
    case SanitizePolicy::Repair:
      return "repair";
    case SanitizePolicy::Quarantine:
      return "quarantine";
  }
  return "?";
}

std::string_view defect_kind_name(DefectKind k) {
  switch (k) {
    case DefectKind::OutOfOrderTimestamp:
      return "out-of-order timestamp";
    case DefectKind::ClockSkewExceeded:
      return "clock skew beyond tolerance";
    case DefectKind::DuplicateTaskStart:
      return "duplicate task start";
    case DefectKind::DuplicateTaskEnd:
      return "duplicate task end";
    case DefectKind::RepeatedExecution:
      return "task executed again after completing";
    case DefectKind::OrphanTaskStart:
      return "task start without end";
    case DefectKind::OrphanTaskEnd:
      return "task end without start";
    case DefectKind::OrphanMsgRise:
      return "message rise without fall";
    case DefectKind::OrphanMsgFall:
      return "message fall without rise";
    case DefectKind::MsgIdMismatch:
      return "message fall id differs from rise id";
    case DefectKind::OverlappingMessages:
      return "overlapping messages on a single bus";
    case DefectKind::DegenerateInterval:
      return "degenerate (empty) interval";
    case DefectKind::PeriodOverrun:
      return "activity exceeds the period length";
    case DefectKind::UnknownTask:
      return "task index out of range";
    case DefectKind::EmptyPeriod:
      return "no complete task execution in period";
    case DefectKind::ResidualViolation:
      return "repaired period failed re-validation";
  }
  return "?";
}

std::string_view defect_kind_slug(DefectKind k) {
  switch (k) {
    case DefectKind::OutOfOrderTimestamp:
      return "out_of_order_timestamp";
    case DefectKind::ClockSkewExceeded:
      return "clock_skew_exceeded";
    case DefectKind::DuplicateTaskStart:
      return "duplicate_task_start";
    case DefectKind::DuplicateTaskEnd:
      return "duplicate_task_end";
    case DefectKind::RepeatedExecution:
      return "repeated_execution";
    case DefectKind::OrphanTaskStart:
      return "orphan_task_start";
    case DefectKind::OrphanTaskEnd:
      return "orphan_task_end";
    case DefectKind::OrphanMsgRise:
      return "orphan_msg_rise";
    case DefectKind::OrphanMsgFall:
      return "orphan_msg_fall";
    case DefectKind::MsgIdMismatch:
      return "msg_id_mismatch";
    case DefectKind::OverlappingMessages:
      return "overlapping_messages";
    case DefectKind::DegenerateInterval:
      return "degenerate_interval";
    case DefectKind::PeriodOverrun:
      return "period_overrun";
    case DefectKind::UnknownTask:
      return "unknown_task";
    case DefectKind::EmptyPeriod:
      return "empty_period";
    case DefectKind::ResidualViolation:
      return "residual_violation";
  }
  return "unknown";
}

TraceSanitizer::TraceSanitizer(TaskNames task_names,
                               SanitizeConfig config)
    : task_names_(std::move(task_names)), config_(config) {
  BBMG_REQUIRE(!task_names_.empty(), "sanitizer needs at least one task");
}

SanitizedPeriod TraceSanitizer::sanitize_period(
    const std::vector<Event>& events, std::size_t period_index) const {
  const std::size_t n = task_names_.size();
  SanitizedPeriod out;
  out.observed_tasks.assign(n, false);

  bool fatal = false;
  auto defect = [&](DefectKind kind, std::size_t event_index,
                    bool repairable) {
    if (config_.policy == SanitizePolicy::Strict) {
      raise("trace sanitizer: " + std::string(defect_kind_name(kind)) +
            " (period " + std::to_string(period_index) + ", event " +
            std::to_string(event_index) + ")");
    }
    const bool repaired =
        repairable && config_.policy == SanitizePolicy::Repair;
    out.defects.push_back(Defect{kind, period_index, event_index, repaired});
    if (repaired) {
      ++out.repairs;
    } else {
      fatal = true;
    }
  };

  // Pass 1: restore a monotone clock.  Backwards jumps within the skew
  // tolerance are logger jitter and clamp to the running maximum; larger
  // jumps mean the timestamps cannot be trusted at all.  The event list is
  // only copied once the first clamp is needed, so a clean period — the
  // overwhelmingly common case — pays no copy.
  std::vector<Event> patched;
  TimeNs run_max = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Quarantined or not, record every task with surviving evidence; the
    // degradation-aware learner weakens claims against this mask.
    if ((events[i].kind == EventKind::TaskStart ||
         events[i].kind == EventKind::TaskEnd) &&
        events[i].task.index() < n) {
      out.observed_tasks[events[i].task.index()] = true;
    }
    if (i > 0 && events[i].time < run_max) {
      const TimeNs skew = run_max - events[i].time;
      if (skew <= config_.clock_skew_tolerance) {
        defect(DefectKind::OutOfOrderTimestamp, i, /*repairable=*/true);
      } else {
        defect(DefectKind::ClockSkewExceeded, i, /*repairable=*/false);
      }
      if (patched.empty()) patched = events;
      patched[i].time = run_max;
    }
    run_max = std::max(run_max, events[i].time);
  }
  const std::vector<Event>& evs = patched.empty() ? events : patched;
  if (config_.period_length > 0 && !evs.empty() &&
      evs.back().time - evs.front().time > config_.period_length) {
    defect(DefectKind::PeriodOverrun, evs.size() - 1, /*repairable=*/false);
  }

  // Pass 2: tolerant re-run of the TraceBuilder state machine.
  std::vector<std::optional<TimeNs>> open_start(n);
  std::vector<std::size_t> open_start_ev(n, 0);
  std::vector<char> completed(n, 0);
  std::vector<TaskExecution> execs;
  execs.reserve(n);
  std::vector<MessageOccurrence> msgs;
  msgs.reserve(evs.size() / 2);
  bool msg_open = false;
  TimeNs open_msg_rise = 0;
  CanId open_msg_id = 0;
  std::size_t open_msg_ev = 0;

  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Event& e = evs[i];
    switch (e.kind) {
      case EventKind::TaskStart: {
        const std::size_t t = e.task.index();
        if (t >= n) {
          defect(DefectKind::UnknownTask, i, /*repairable=*/false);
          break;
        }
        if (open_start[t].has_value()) {
          // Keep the earliest start; a re-stated start is logger noise.
          defect(DefectKind::DuplicateTaskStart, i, /*repairable=*/true);
          break;
        }
        if (completed[t]) {
          // A third+ event for a finished task: we cannot tell which
          // execution is real, and inventing one would fabricate evidence.
          defect(DefectKind::RepeatedExecution, i, /*repairable=*/false);
          break;
        }
        open_start[t] = e.time;
        open_start_ev[t] = i;
        break;
      }
      case EventKind::TaskEnd: {
        const std::size_t t = e.task.index();
        if (t >= n) {
          defect(DefectKind::UnknownTask, i, /*repairable=*/false);
          break;
        }
        if (open_start[t].has_value()) {
          if (e.time <= *open_start[t]) {
            // Clamping collapsed the execution; its timing is gone and
            // synthesizing one would shift candidate windows.
            defect(DefectKind::DegenerateInterval, i, /*repairable=*/false);
            open_start[t].reset();
            break;
          }
          execs.push_back(TaskExecution{e.task, *open_start[t], e.time});
          completed[t] = 1;
          open_start[t].reset();
        } else if (completed[t]) {
          defect(DefectKind::DuplicateTaskEnd, i, /*repairable=*/true);
        } else {
          // The execution happened (observed_tasks has it) but its start
          // time is unrecoverable — fatal, never synthesized.
          defect(DefectKind::OrphanTaskEnd, i, /*repairable=*/false);
        }
        break;
      }
      case EventKind::MsgRise: {
        if (msg_open) {
          // The previous occurrence never fell; discard it the way the
          // logging device discards errored frames.
          defect(DefectKind::OrphanMsgRise, open_msg_ev, /*repairable=*/true);
        }
        msg_open = true;
        open_msg_rise = e.time;
        open_msg_id = e.can_id;
        open_msg_ev = i;
        break;
      }
      case EventKind::MsgFall: {
        if (!msg_open) {
          defect(DefectKind::OrphanMsgFall, i, /*repairable=*/true);
          break;
        }
        if (open_msg_id != e.can_id) {
          // One of the two ids is corrupt and we cannot tell which;
          // discard both edges.
          defect(DefectKind::MsgIdMismatch, i, /*repairable=*/true);
          msg_open = false;
          break;
        }
        if (e.time <= open_msg_rise) {
          defect(DefectKind::DegenerateInterval, i, /*repairable=*/true);
          msg_open = false;
          break;
        }
        msgs.push_back(MessageOccurrence{open_msg_rise, e.time, e.can_id});
        msg_open = false;
        break;
      }
    }
  }

  if (msg_open) {
    defect(DefectKind::OrphanMsgRise, open_msg_ev, /*repairable=*/true);
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (open_start[t].has_value()) {
      defect(DefectKind::OrphanTaskStart, open_start_ev[t],
             /*repairable=*/false);
    }
  }

  // Single shared bus: occurrences must not overlap.  Perturbed edges can
  // interleave two occurrences; the later one's timing lost the race.  The
  // state machine emits occurrences in rise order already (timestamps are
  // monotone and only one message is open at a time), so the common case is
  // a single ordered, overlap-free scan with nothing to re-sort or copy.
  bool msgs_dirty = false;
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    if (msgs[i].rise < msgs[i - 1].rise || msgs[i].rise < msgs[i - 1].fall) {
      msgs_dirty = true;
      break;
    }
  }
  if (msgs_dirty) {
    std::sort(msgs.begin(), msgs.end(),
              [](const MessageOccurrence& a, const MessageOccurrence& b) {
                return a.rise < b.rise;
              });
    std::vector<MessageOccurrence> kept_msgs;
    kept_msgs.reserve(msgs.size());
    TimeNs prev_fall = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      if (!kept_msgs.empty() && msgs[i].rise < prev_fall) {
        defect(DefectKind::OverlappingMessages, i, /*repairable=*/true);
        continue;
      }
      prev_fall = msgs[i].fall;
      kept_msgs.push_back(msgs[i]);
    }
    msgs = std::move(kept_msgs);
  }

  if (execs.empty()) {
    defect(DefectKind::EmptyPeriod, 0, /*repairable=*/false);
  }

  if (fatal) return out;  // quarantined: out.period stays empty
  out.period = Period(std::move(execs), std::move(msgs));
  return out;
}

SanitizeResult TraceSanitizer::sanitize(
    const std::vector<std::vector<Event>>& raw_periods) const {
  SanitizeResult res;
  res.trace = Trace(task_names_);
  // Repaired periods are re-validated through TraceBuilder — the one source
  // of period-validity truth — so a sanitizer gap degrades to a quarantine
  // instead of leaking an invalid period to the learner.
  TraceBuilder revalidator(task_names_);
  for (std::size_t i = 0; i < raw_periods.size(); ++i) {
    SanitizedPeriod sp = sanitize_period(raw_periods[i], i);
    res.repairs += sp.repairs;
    res.defects.insert(res.defects.end(), sp.defects.begin(),
                       sp.defects.end());
    if (sp.quarantined()) {
      res.quarantined.push_back(i);
      res.quarantined_observed.push_back(std::move(sp.observed_tasks));
      continue;
    }
    if (!sp.defects.empty()) {
      try {
        revalidator.begin_period();
        for (const Event& e : sp.period->to_events()) revalidator.add_event(e);
        revalidator.end_period();
      } catch (const Error&) {
        revalidator.reset();
        res.defects.push_back(
            Defect{DefectKind::ResidualViolation, i, 0, false});
        res.quarantined.push_back(i);
        res.quarantined_observed.push_back(std::move(sp.observed_tasks));
        continue;
      }
    }
    res.kept.push_back(i);
    res.trace.add_period(std::move(*sp.period));
  }
  return res;
}

std::vector<std::vector<Event>> to_raw_periods(const Trace& trace) {
  std::vector<std::vector<Event>> raw;
  raw.reserve(trace.num_periods());
  for (const Period& p : trace.periods()) raw.push_back(p.to_events());
  return raw;
}

}  // namespace bbmg
