// Structured JSON-lines logging for the serving stack.
//
// Every line is one JSON object — machine-parseable, grep-friendly — with
// a fixed envelope (wall-clock ms, level, event, message) plus optional
// key/value fields and, when the emitting code runs under a TraceScope or
// passes a context explicitly, the 64-bit trace id that correlates the
// line with the causal-tracing spans of the same request.
//
//   {"ts_ms":1719239471123,"level":"warn","event":"serve.session_failed",
//    "msg":"fsync failed ...","trace":"8f3a...","session":7}
//
// Rate limiting is per call site: each BBMG_LOG_* statement owns a static
// LogSite with a one-second token window, so a pathological loop (a dying
// disk failing every period) cannot flood the sink; the first line after a
// suppressed burst carries a "suppressed":N field.  Every emitted line is
// also appended to the crash flight recorder's ring
// (obs/flight_recorder.hpp), so a postmortem dump always ends with the
// most recent structured events.
#pragma once

#include <cstdint>
#include <cstdio>
#include <atomic>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/trace_context.hpp"

namespace bbmg::obs {

enum class LogLevel : std::uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

[[nodiscard]] std::string_view log_level_name(LogLevel level);

/// One key/value field of a structured line.  Strings are JSON-escaped at
/// render time; numeric constructors render unquoted.
struct LogKV {
  std::string_view key;
  std::string value;
  bool raw{false};  // true = emit unquoted (numbers/booleans)

  LogKV(std::string_view k, std::string v)
      : key(k), value(std::move(v)) {}
  LogKV(std::string_view k, const char* v) : key(k), value(v) {}
  LogKV(std::string_view k, std::string_view v)
      : key(k), value(std::string(v)) {}
  LogKV(std::string_view k, std::uint64_t v)
      : key(k), value(std::to_string(v)), raw(true) {}
  LogKV(std::string_view k, std::int64_t v)
      : key(k), value(std::to_string(v)), raw(true) {}
  LogKV(std::string_view k, std::uint32_t v)
      : key(k), value(std::to_string(v)), raw(true) {}
  LogKV(std::string_view k, std::int32_t v)
      : key(k), value(std::to_string(v)), raw(true) {}
  LogKV(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false"), raw(true) {}
};

/// Per-call-site state: the event name, the line's level, and the rate
/// limiter.  Declared static at the call site (the BBMG_LOG_* macros do
/// this) so suppression is per statement, not global.
class LogSite {
 public:
  constexpr LogSite(LogLevel level, const char* event)
      : level_(level), event_(event) {}

  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] const char* event() const { return event_; }

  /// True when this call may emit (consumes one token); on the first
  /// allowed call after a suppressed burst, `suppressed` is set to the
  /// burst size.
  bool admit(std::uint64_t now_ns, std::uint32_t max_per_sec,
             std::uint64_t& suppressed);

 private:
  LogLevel level_;
  const char* event_;
  std::atomic<std::uint64_t> window_start_ns_{0};
  std::atomic<std::uint32_t> in_window_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

class Logger {
 public:
  static Logger& instance();

  /// Lines below this level are dropped (default Info).
  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<std::uint8_t>(level),
                     std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// Redirect output (default stderr).  Not owned; pass nullptr to silence
  /// the sink while still feeding the flight recorder.
  void set_sink(std::FILE* sink) { sink_.store(sink); }

  /// Per-site emission cap (lines per second; default 32, 0 = unlimited).
  void set_rate_limit(std::uint32_t per_sec) {
    rate_limit_.store(per_sec, std::memory_order_relaxed);
  }

  /// Emit one structured line under `ctx` (pass {} for uncorrelated
  /// lines).  Thread-safe; the line is rendered outside the sink lock.
  void log(LogSite& site, const TraceContext& ctx, std::string_view msg,
           std::initializer_list<LogKV> fields = {});

  /// Lines emitted (post-filter, post-rate-limit) and suppressed, process
  /// wide — exposed for tests and the metrics bridge.
  [[nodiscard]] std::uint64_t lines_emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lines_suppressed() const {
    return total_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  Logger() = default;

  std::atomic<std::uint8_t> min_level_{
      static_cast<std::uint8_t>(LogLevel::Info)};
  std::atomic<std::FILE*> sink_{stderr};
  std::atomic<std::uint32_t> rate_limit_{32};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> total_suppressed_{0};
};

/// Render one line without emitting it (exposed for tests).
[[nodiscard]] std::string render_log_line(LogLevel level,
                                          std::string_view event,
                                          const TraceContext& ctx,
                                          std::string_view msg,
                                          std::initializer_list<LogKV> fields,
                                          std::uint64_t suppressed);

}  // namespace bbmg::obs

// The call-site macros: a static LogSite per statement (per-site rate
// limiting), trace correlation from the thread-local current context.
// Fields are brace-lists of LogKV: BBMG_LOG_WARN("serve.x", "msg",
// {{"session", id}, {"err", what}}).
#define BBMG_LOG_AT(lvl, event_name, msg, ...)                             \
  do {                                                                     \
    static ::bbmg::obs::LogSite bbmg_log_site_((lvl), (event_name));       \
    ::bbmg::obs::Logger::instance().log(                                   \
        bbmg_log_site_, ::bbmg::obs::current_trace(), (msg),               \
        ##__VA_ARGS__);                                                    \
  } while (0)

#define BBMG_LOG_DEBUG(event_name, msg, ...) \
  BBMG_LOG_AT(::bbmg::obs::LogLevel::Debug, event_name, msg, ##__VA_ARGS__)
#define BBMG_LOG_INFO(event_name, msg, ...) \
  BBMG_LOG_AT(::bbmg::obs::LogLevel::Info, event_name, msg, ##__VA_ARGS__)
#define BBMG_LOG_WARN(event_name, msg, ...) \
  BBMG_LOG_AT(::bbmg::obs::LogLevel::Warn, event_name, msg, ##__VA_ARGS__)
#define BBMG_LOG_ERROR(event_name, msg, ...) \
  BBMG_LOG_AT(::bbmg::obs::LogLevel::Error, event_name, msg, ##__VA_ARGS__)
