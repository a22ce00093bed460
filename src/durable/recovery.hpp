// Startup recovery: scan the data directory, restore every session from
// its newest valid snapshot, replay the WAL tail, and hand back live
// learners plus re-attached SessionStores ready to keep appending.
//
// The robustness contract (ISSUE acceptance criterion): recovery NEVER
// aborts on damaged state.  A snapshot that fails its CRC or decode is
// quarantined (moved to `<data_dir>/quarantine/`) and the previous
// snapshot is tried; a WAL with a corrupt header, a session-id mismatch,
// or a base past the best snapshot (an unreplayable gap) is quarantined
// and the session restarts from the snapshot alone; a torn WAL tail is
// truncated at the last good record and the log is reused.  Every such
// decision is recorded as a human-readable diagnostic line so an operator
// can audit what a crashy disk cost them.
//
// Determinism: the learner is a pure function of its applied-period
// prefix and the sanitizer is stateless, so `snapshot state + replay of
// records snap_seq+1..last` reproduces the pre-crash learner byte for
// byte (tests/durable/crash_recovery_test.cpp proves this against an
// uninterrupted baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "durable/store.hpp"

namespace bbmg::durable {

struct RecoveredSession {
  SessionMeta meta;
  /// Applied-period high-water mark after replay.
  std::uint64_t seq{0};
  RobustOnlineLearner learner;
  /// Store re-attached to the session directory, WAL open for appending.
  std::unique_ptr<SessionStore> store;
  /// Periods replayed from the WAL tail for this session.
  std::uint64_t replayed{0};
};

struct RecoveryReport {
  /// Recovered sessions (empty when recover_all streamed them to a sink).
  std::vector<RecoveredSession> sessions;
  /// Sessions recovered, whether kept in `sessions` or streamed.
  std::size_t recovered{0};
  /// Destination paths of files moved to quarantine.
  std::vector<std::string> quarantined_files;
  /// Human-readable account of every non-clean decision.
  std::vector<std::string> diagnostics;
  std::uint64_t replayed_periods{0};
  std::uint64_t torn_tails{0};

  [[nodiscard]] std::string summary_line() const;
};

/// Scan `config.dir` and recover every session.  Creates the directory if
/// missing (fresh start).  Throws only on environmental failures (e.g.
/// the data dir cannot be created) — damaged session state is quarantined,
/// never fatal.  With a `sink`, each recovered session is handed to it as
/// soon as it is rebuilt instead of being kept in the report, so the
/// caller never holds every session at once.
[[nodiscard]] RecoveryReport recover_all(
    const DurableConfig& config,
    const std::function<void(RecoveredSession&&)>& sink = {});

/// Recover just `<config.dir>/session-<session>` under the same rules as
/// recover_all; the report holds no session when nothing usable is there.
[[nodiscard]] RecoveryReport recover_one(const DurableConfig& config,
                                         std::uint32_t session);

/// Move `path` into `<data_dir>/quarantine/`, uniquified if needed.
/// Returns the destination path ("" if the move itself failed — the file
/// is then left in place and serving continues without it).
std::string quarantine_file(const std::string& data_dir,
                            const std::string& path);

}  // namespace bbmg::durable
