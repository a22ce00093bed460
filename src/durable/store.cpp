#include "durable/store.hpp"

#include <algorithm>
#include <filesystem>

#include "common/error.hpp"
#include "durable/durable_metrics.hpp"
#include "obs/span.hpp"

namespace bbmg::durable {

namespace fs = std::filesystem;

std::string session_dirname(std::uint32_t session) {
  return "session-" + std::to_string(session);
}

SessionStore::SessionStore(const DurableConfig& config, SessionMeta meta,
                           std::string dir)
    : fsync_every_(config.fsync_every),
      snapshot_every_(config.snapshot_every),
      meta_(std::move(meta)),
      dir_(std::move(dir)) {}

std::unique_ptr<SessionStore> SessionStore::create(
    const DurableConfig& config, SessionMeta meta,
    const RobustOnlineLearner& learner) {
  BBMG_REQUIRE(config.enabled(), "durable: create() with durability off");
  const std::string dir =
      (fs::path(config.dir) / session_dirname(meta.session)).string();
  std::error_code ec;
  fs::create_directories(dir, ec);
  BBMG_REQUIRE(!ec, "durable: cannot create session directory " + dir + ": " +
                        ec.message());
  auto store = std::unique_ptr<SessionStore>(
      new SessionStore(config, std::move(meta), dir));
  // Seq-0 snapshot first, so even a session killed before its first
  // period recovers with the right metadata and an empty learner.
  store->write_snapshot(0, learner);
  return store;
}

std::unique_ptr<SessionStore> SessionStore::attach(
    const DurableConfig& config, SessionMeta meta, std::uint64_t snapshot_seq,
    std::uint64_t wal_base_seq, std::uint64_t last_seq, bool reuse_wal) {
  BBMG_REQUIRE(config.enabled(), "durable: attach() with durability off");
  const std::string dir =
      (fs::path(config.dir) / session_dirname(meta.session)).string();
  const std::uint32_t session = meta.session;
  auto store = std::unique_ptr<SessionStore>(
      new SessionStore(config, std::move(meta), dir));
  const std::string wal_path = (fs::path(dir) / kWalFilename).string();
  if (reuse_wal && fs::exists(wal_path)) {
    store->wal_.open(wal_path, session, wal_base_seq, last_seq,
                     config.fsync_every);
  } else {
    // O_TRUNC create: whatever recovery condemned (and possibly failed to
    // move aside) is destroyed here rather than appended after.
    store->wal_.create(wal_path, session, last_seq, config.fsync_every);
  }
  // The newest snapshot recovery accepted is the compaction base.
  store->last_snapshot_seq_ = snapshot_seq;
  return store;
}

void SessionStore::append_period(std::uint64_t seq,
                                 const std::vector<Event>& events) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_.append(seq, events);
}

std::uint64_t SessionStore::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.flush();
}

bool SessionStore::should_compact(std::uint64_t seq) const {
  if (snapshot_every_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return seq >= last_snapshot_seq_ + snapshot_every_;
}

std::uint64_t SessionStore::snapshot_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_snapshot_seq_;
}

void SessionStore::write_snapshot(std::uint64_t seq,
                                  const RobustOnlineLearner& learner) {
  const std::uint64_t t0 = obs::now_ns();
  const std::vector<std::uint8_t> bytes = encode_snapshot(meta_, seq, learner);

  std::lock_guard<std::mutex> lock(mu_);
  const std::string path =
      (fs::path(dir_) / snapshot_filename(seq)).string();
  write_file_atomic(path, bytes);
  last_snapshot_seq_ = seq;
  prune_snapshots_locked();
  // Rotate only after the snapshot is durably on disk: a crash between
  // the two leaves a longer-than-needed WAL, never a gap.
  if (wal_.is_open()) {
    wal_.rotate(seq);
  } else {
    const std::string wal_path = (fs::path(dir_) / kWalFilename).string();
    wal_.create(wal_path, meta_.session, seq, fsync_every_);
  }

  auto& m = DurableMetrics::get();
  m.snapshots_written.inc(1);
  m.snapshot_bytes.inc(bytes.size());
  m.snapshot_write_us.observe((obs::now_ns() - t0) / 1000);
}

void SessionStore::prune_snapshots_locked() {
  std::vector<std::pair<std::uint64_t, fs::path>> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto seq = parse_snapshot_filename(entry.path().filename().string());
    if (seq) snaps.emplace_back(*seq, entry.path());
  }
  if (snaps.size() <= kSnapshotsToKeep) return;
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = kSnapshotsToKeep; i < snaps.size(); ++i) {
    fs::remove(snaps[i].second, ec);  // best-effort; stale files are benign
  }
}

}  // namespace bbmg::durable
