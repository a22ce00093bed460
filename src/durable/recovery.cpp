#include "durable/recovery.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "durable/durable_metrics.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"

namespace bbmg::durable {

namespace fs = std::filesystem;

namespace {

std::optional<std::uint32_t> parse_session_dirname(const std::string& name) {
  constexpr std::string_view prefix = "session-";
  if (name.size() <= prefix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    const char ch = name[i];
    if (ch < '0' || ch > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(ch - '0');
    if (id > 0xffffffffull) return std::nullopt;
  }
  return static_cast<std::uint32_t>(id);
}

void quarantine_and_note(const DurableConfig& config, const std::string& path,
                         const std::string& why, RecoveryReport& report,
                         bool reset_on_move_failure = false) {
  const std::string dest = quarantine_file(config.dir, path);
  report.diagnostics.push_back(
      "quarantined " + path + " (" + why + ")" +
      (dest.empty() ? (reset_on_move_failure
                           ? " [move failed; file will be reset]"
                           : " [move failed; left in place]")
                    : " -> " + dest));
  BBMG_LOG_WARN("durable.quarantine", why,
                {{"path", path},
                 {"dest", dest.empty() ? std::string("<move failed>") : dest}});
  if (!dest.empty()) {
    report.quarantined_files.push_back(dest);
    DurableMetrics::get().quarantined_files.inc(1);
  }
}

/// Recover one session directory; appends to the report.  Never throws on
/// damaged state — only on environmental failures.
void recover_session(const DurableConfig& config, const fs::path& dir,
                     std::uint32_t session_id, RecoveryReport& report) {
  // Newest-first list of snapshot candidates.
  std::vector<std::pair<std::uint64_t, fs::path>> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto seq = parse_snapshot_filename(entry.path().filename().string());
    if (seq) snaps.emplace_back(*seq, entry.path());
  }
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::optional<LoadedSnapshot> snap;
  for (const auto& [seq, path] : snaps) {
    try {
      LoadedSnapshot loaded = load_snapshot_file(path.string());
      if (loaded.meta.session != session_id) {
        quarantine_and_note(config, path.string(),
                            "session id mismatch: file says " +
                                std::to_string(loaded.meta.session) +
                                ", directory says " +
                                std::to_string(session_id),
                            report);
        continue;
      }
      if (loaded.seq != seq) {
        quarantine_and_note(config, path.string(),
                            "sequence mismatch: payload says " +
                                std::to_string(loaded.seq) +
                                ", filename says " + std::to_string(seq),
                            report);
        continue;
      }
      snap.emplace(std::move(loaded));
      break;
    } catch (const Error& e) {
      quarantine_and_note(config, path.string(), e.what(), report);
    }
  }

  const fs::path wal_path = dir / kWalFilename;
  if (!snap) {
    report.diagnostics.push_back("session " + std::to_string(session_id) +
                                 ": no usable snapshot; session dropped");
    if (fs::exists(wal_path)) {
      quarantine_and_note(config, wal_path.string(),
                          "WAL without a usable base snapshot", report);
    }
    return;
  }

  RobustOnlineLearner learner = std::move(snap->learner);
  std::uint64_t last = snap->seq;
  std::uint64_t wal_base = snap->seq;
  std::uint64_t replayed = 0;
  bool reuse_wal = false;

  if (fs::exists(wal_path)) {
    try {
      // Validate the header before replaying anything: a mismatched log
      // is condemned without a single record touching the learner.
      const WalHeader header = read_wal_header(wal_path.string());
      if (header.session != session_id) {
        quarantine_and_note(config, wal_path.string(),
                            "WAL session id mismatch", report,
                            /*reset_on_move_failure=*/true);
      } else if (header.base_seq > snap->seq) {
        // The snapshot this WAL extended is gone (quarantined above):
        // replaying would skip periods.  Keep the snapshot's truth.
        quarantine_and_note(
            config, wal_path.string(),
            "WAL base " + std::to_string(header.base_seq) +
                " is past the best snapshot at " + std::to_string(snap->seq) +
                " (unreplayable gap)",
            report, /*reset_on_move_failure=*/true);
      } else {
        // Stream the records straight into the learner: a legitimate WAL
        // runs up to snapshot_every x kMaxWalRecordPayload bytes, far
        // past any sane whole-file read cap, so it is never materialized.
        const WalFileScan scan = scan_wal_file(
            wal_path.string(), [&](WalRecord&& rec) {
              if (rec.seq <= snap->seq) return;  // already in the snapshot
              learner.observe_raw_period(rec.events);
              last = rec.seq;
              ++replayed;
            });
        if (scan.torn_tail) {
          truncate_file(wal_path.string(), scan.valid_bytes);
          DurableMetrics::get().torn_wal_tails.inc(1);
          ++report.torn_tails;
          report.diagnostics.push_back(
              "session " + std::to_string(session_id) +
              ": torn WAL tail truncated at byte " +
              std::to_string(scan.valid_bytes));
          BBMG_LOG_WARN("durable.torn_tail", "torn WAL tail truncated",
                        {{"session", session_id},
                         {"valid_bytes", scan.valid_bytes}});
        }
        const std::uint64_t last_record =
            scan.records == 0 ? scan.base_seq : scan.last_seq;
        if (last_record >= snap->seq) {
          // The file's physical tail lines up with `last`; appends stay
          // contiguous, so the log can be reused as-is.
          wal_base = scan.base_seq;
          reuse_wal = true;
        } else {
          // Valid but stale (everything it holds is inside the snapshot);
          // appending here would leave a sequence hole.  attach() below
          // recreates the file with O_TRUNC (no remove needed — and a
          // failed remove could not be appended over either way).
          report.diagnostics.push_back(
              "session " + std::to_string(session_id) +
              ": stale WAL (ends at " + std::to_string(last_record) +
              ", snapshot at " + std::to_string(snap->seq) + ") replaced");
        }
      }
    } catch (const Error& e) {
      quarantine_and_note(config, wal_path.string(), e.what(), report,
                          /*reset_on_move_failure=*/true);
    }
  }
  if (!reuse_wal) wal_base = last;

  std::unique_ptr<SessionStore> store = SessionStore::attach(
      config, snap->meta, snap->seq, wal_base, last, reuse_wal);

  if (!reuse_wal && last > snap->seq) {
    // Periods were replayed but the log backing them could not be kept
    // (condemned after replay, or a torn-tail truncate failure).  The
    // fresh empty WAL starts at `last`, so without a snapshot there the
    // next recovery would see an unreplayable snapshot->WAL gap and lose
    // the replayed periods.  Close the gap now.
    try {
      store->write_snapshot(last, learner);
    } catch (const Error& e) {
      report.diagnostics.push_back(
          "session " + std::to_string(session_id) +
          ": post-replay snapshot failed (" + std::string(e.what()) + ")");
    }
  }

  auto& m = DurableMetrics::get();
  m.recovered_sessions.inc(1);
  m.replayed_periods.inc(replayed);
  report.replayed_periods += replayed;
  ++report.recovered;
  report.sessions.push_back(RecoveredSession{
      std::move(snap->meta), last, std::move(learner),
      std::move(store), replayed});
}

}  // namespace

std::string quarantine_file(const std::string& data_dir,
                            const std::string& path) {
  std::error_code ec;
  const fs::path qdir = fs::path(data_dir) / "quarantine";
  fs::create_directories(qdir, ec);
  if (ec) return "";
  const fs::path src(path);
  const std::string base =
      src.parent_path().filename().string() + "-" + src.filename().string();
  fs::path dest = qdir / base;
  for (int i = 1; fs::exists(dest, ec) && i < 1000; ++i) {
    dest = qdir / (base + "." + std::to_string(i));
  }
  fs::rename(src, dest, ec);
  if (ec) return "";
  return dest.string();
}

std::string RecoveryReport::summary_line() const {
  return "durable: recovered " + std::to_string(recovered) +
         " session(s), replayed " + std::to_string(replayed_periods) +
         " WAL period(s), truncated " + std::to_string(torn_tails) +
         " torn tail(s), quarantined " +
         std::to_string(quarantined_files.size()) + " file(s)";
}

RecoveryReport recover_one(const DurableConfig& config,
                           std::uint32_t session) {
  RecoveryReport report;
  const fs::path dir = fs::path(config.dir) / session_dirname(session);
  std::error_code ec;
  if (config.enabled() && fs::is_directory(dir, ec)) {
    recover_session(config, dir, session, report);
  }
  return report;
}

RecoveryReport recover_all(
    const DurableConfig& config,
    const std::function<void(RecoveredSession&&)>& sink) {
  RecoveryReport report;
  if (!config.enabled()) return report;
  const std::uint64_t t0 = obs::now_ns();

  std::error_code ec;
  fs::create_directories(config.dir, ec);
  BBMG_REQUIRE(!ec, "durable: cannot create data directory " + config.dir +
                        ": " + ec.message());

  std::vector<std::pair<std::uint32_t, fs::path>> session_dirs;
  for (const auto& entry : fs::directory_iterator(config.dir, ec)) {
    if (!entry.is_directory()) continue;
    const auto id = parse_session_dirname(entry.path().filename().string());
    if (id) session_dirs.emplace_back(*id, entry.path());
  }
  std::sort(session_dirs.begin(), session_dirs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [id, dir] : session_dirs) {
    recover_session(config, dir, id, report);
    if (sink && !report.sessions.empty()) {
      sink(std::move(report.sessions.back()));
      report.sessions.pop_back();
    }
  }

  DurableMetrics::get().recovery_us.observe((obs::now_ns() - t0) / 1000);
  BBMG_LOG_INFO("durable.recovery", report.summary_line(),
                {{"sessions", report.recovered},
                 {"replayed", report.replayed_periods},
                 {"torn_tails", report.torn_tails},
                 {"quarantined", report.quarantined_files.size()}});
  return report;
}

}  // namespace bbmg::durable
