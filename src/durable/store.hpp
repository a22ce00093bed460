// SessionStore — the per-session owner of durable state: one directory
// `<data_dir>/session-<id>/` holding the newest snapshots plus the WAL
// that extends them.  The serve layer drives it from two sides:
//
//   * the session's affine worker thread calls append_period() right
//     before the learner applies a period (WAL order == apply order, the
//     determinism invariant) and write_snapshot() at compaction points;
//   * connection threads call flush() when a Resume request needs the
//     honest durable high-water mark.
//
// An internal mutex serializes those; contention is one uncontended lock
// per period in the steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durable/snapshot.hpp"
#include "durable/wal.hpp"

namespace bbmg::durable {

struct DurableConfig {
  /// Data directory root; empty = durability off (pure in-memory serving).
  std::string dir;
  /// Group-commit interval: fsync the WAL once per this many appends.
  /// 1 = fsync every period (maximum machine-crash durability).
  std::size_t fsync_every{32};
  /// Write a snapshot and rotate the WAL every this many applied periods.
  /// 0 disables periodic compaction (snapshots only at shutdown).
  std::size_t snapshot_every{256};

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Snapshots kept per session after compaction (newest N; the previous
/// one survives so a torn newest file never strands the session).
inline constexpr std::size_t kSnapshotsToKeep = 2;

[[nodiscard]] std::string session_dirname(std::uint32_t session);

class SessionStore {
 public:
  /// Set up durable state for a brand-new session: create the session
  /// directory, write the seq-0 snapshot (so recovery always has a base),
  /// and start a fresh WAL.
  [[nodiscard]] static std::unique_ptr<SessionStore> create(
      const DurableConfig& config, SessionMeta meta,
      const RobustOnlineLearner& learner);

  /// Re-attach to a recovered session directory.  `snapshot_seq` is the
  /// seq of the snapshot recovery restored from; `wal_base_seq` /
  /// `last_seq` come from the recovery scan.  `reuse_wal` must be true
  /// only when recovery validated the on-disk log end-to-end (scanned,
  /// tail-truncated, tail contiguous with `last_seq`) — it is then
  /// reopened for appending.  Otherwise the log is recreated with
  /// O_TRUNC, so a condemned or stale file that could not be quarantined
  /// or removed is overwritten, never appended over (appending would
  /// leave a sequence discontinuity the next recovery truncates as a
  /// torn tail, silently losing the new records).
  [[nodiscard]] static std::unique_ptr<SessionStore> attach(
      const DurableConfig& config, SessionMeta meta,
      std::uint64_t snapshot_seq, std::uint64_t wal_base_seq,
      std::uint64_t last_seq, bool reuse_wal);

  /// Append one accepted period at `seq` (must be the previous seq + 1).
  /// Called on the session's worker thread before the learner applies.
  void append_period(std::uint64_t seq, const std::vector<Event>& events);

  /// fsync the WAL tail; returns the durable high-water mark.
  std::uint64_t flush();

  /// Write a snapshot of the learner at `seq`, prune old snapshots down
  /// to kSnapshotsToKeep, and rotate the WAL to base `seq`.
  void write_snapshot(std::uint64_t seq, const RobustOnlineLearner& learner);

  /// True when `seq` has advanced snapshot_every periods past the last
  /// snapshot (periodic compaction trigger).
  [[nodiscard]] bool should_compact(std::uint64_t seq) const;
  /// Seq of the newest snapshot written or recovered from.
  [[nodiscard]] std::uint64_t snapshot_seq() const;

  [[nodiscard]] const SessionMeta& meta() const { return meta_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  SessionStore(const DurableConfig& config, SessionMeta meta,
               std::string dir);

  void prune_snapshots_locked();

  mutable std::mutex mu_;
  // The knobs of DurableConfig a store uses; its data-dir root lives on
  // only as the prefix of dir_ (one path per session).
  std::size_t fsync_every_;
  std::size_t snapshot_every_;
  SessionMeta meta_;
  std::string dir_;  // <config.dir>/session-<id>
  WalWriter wal_;
  std::uint64_t last_snapshot_seq_{0};
};

}  // namespace bbmg::durable
