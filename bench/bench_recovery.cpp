// Experiment E11 — crash-safety economics (src/durable):
//   (a) snapshot size and atomic-write cost as the model grows (vary the
//       number of GM-trace periods ingested before snapshotting),
//   (b) WAL append overhead per accepted period, measured as the relative
//       slowdown of WAL+learner ingest over learner-only ingest — the
//       budget is <5% of ingest wall time at the default group-commit
//       interval (fsync_every=32); fsync-per-period is priced alongside,
//   (c) cold-start recovery latency as a function of WAL tail length
//       (snapshot + replay of 0..108 periods), re-checking that the
//       recovered learner is byte-identical to the uninterrupted one.
// Output is one JSON document, printed and also written to
// BENCH_recovery.json so the curves can be plotted directly.
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "durable/recovery.hpp"

using namespace bbmg;
using namespace bbmg::durable;

namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("bbmg_bench_recovery_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

SessionMeta bench_meta(const Trace& trace) {
  SessionMeta meta;
  meta.session = 1;
  meta.task_names = trace.task_names();
  meta.config.online.bound = 16;
  meta.snapshot_interval = 256;
  return meta;
}

std::vector<std::uint8_t> learner_bytes(const RobustOnlineLearner& l) {
  std::vector<std::uint8_t> out;
  l.encode_state(out);
  return out;
}

// -- (a) snapshot size / write cost vs model size --------------------------

struct SnapshotCell {
  std::size_t periods = 0;
  std::size_t events = 0;
  std::size_t snapshot_bytes = 0;
  double encode_ms = 0.0;
  double write_ms = 0.0;
  double load_ms = 0.0;
};

SnapshotCell measure_snapshot(const Trace& trace, std::size_t periods) {
  SessionMeta meta = bench_meta(trace);
  RobustOnlineLearner learner(meta.task_names, meta.config);
  std::size_t events = 0;
  std::size_t applied = 0;
  for (const Period& p : trace.periods()) {
    if (applied++ >= periods) break;
    const std::vector<Event> evs = p.to_events();
    events += evs.size();
    learner.observe_raw_period(evs);
  }

  SnapshotCell cell;
  cell.periods = periods;
  cell.events = events;
  Stopwatch enc;
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(meta, periods, learner);
  cell.encode_ms = enc.elapsed_ms();
  cell.snapshot_bytes = bytes.size();

  const std::string dir = fresh_dir("snap");
  const std::string path = dir + "/" + snapshot_filename(periods);
  Stopwatch wr;
  write_file_atomic(path, bytes);  // tmp + fsync + rename + dir fsync
  cell.write_ms = wr.elapsed_ms();
  Stopwatch ld;
  (void)load_snapshot_file(path);
  cell.load_ms = ld.elapsed_ms();
  fs::remove_all(dir);
  return cell;
}

// -- (b) WAL append overhead per period ------------------------------------

struct OverheadCell {
  std::size_t fsync_every = 0;
  std::size_t periods = 0;
  double ingest_ms = 0.0;
  double wal_ms = 0.0;
  double overhead_pct = 0.0;
  double wal_us_per_period = 0.0;
};

/// Ingest `rounds` replays of the trace through a durable session exactly
/// as LearningSession::process() orders it (append_period before the
/// learner applies), timing the WAL calls directly.  The budget metric is
/// time-in-WAL as a fraction of the total ingest wall time — an A/B run
/// against a WAL-less learner is too noisy to resolve a microsecond-scale
/// append against a multi-second learner run.
OverheadCell measure_overhead(const Trace& trace, std::size_t rounds,
                              std::size_t fsync_every) {
  std::vector<std::vector<Event>> periods;
  for (const Period& p : trace.periods()) periods.push_back(p.to_events());
  const SessionMeta meta = bench_meta(trace);

  OverheadCell cell;
  cell.fsync_every = fsync_every;
  cell.periods = rounds * periods.size();

  DurableConfig config;
  config.dir = fresh_dir("wal");
  config.fsync_every = fsync_every;
  config.snapshot_every = 0;  // isolate the WAL cost from compaction
  RobustOnlineLearner learner(meta.task_names, meta.config);
  std::unique_ptr<SessionStore> store =
      SessionStore::create(config, meta, learner);
  double wal_ms = 0.0;
  Stopwatch w;
  std::uint64_t seq = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& evs : periods) {
      Stopwatch in_wal;
      store->append_period(++seq, evs);
      wal_ms += in_wal.elapsed_ms();
      learner.observe_raw_period(evs);
    }
  }
  Stopwatch in_flush;
  (void)store->flush();
  wal_ms += in_flush.elapsed_ms();
  cell.ingest_ms = w.elapsed_ms();
  store.reset();
  fs::remove_all(config.dir);

  cell.wal_ms = wal_ms;
  cell.overhead_pct = wal_ms / cell.ingest_ms * 100.0;
  cell.wal_us_per_period =
      wal_ms * 1e3 / static_cast<double>(cell.periods);
  return cell;
}

// -- (c) recovery latency vs WAL tail length -------------------------------

struct RecoveryCell {
  std::size_t tail_periods = 0;
  double recover_ms = 0.0;
  std::uint64_t replayed = 0;
  bool byte_identical = false;
};

RecoveryCell measure_recovery(std::size_t tail_periods) {
  const Trace trace = bench::gm_trace(7, std::max<std::size_t>(tail_periods, 1));
  const SessionMeta meta = bench_meta(trace);

  DurableConfig config;
  config.dir = fresh_dir("recover");
  config.fsync_every = 32;
  config.snapshot_every = 0;  // keep the whole tail in the WAL

  // Uninterrupted run: seq-0 snapshot, then `tail_periods` WAL appends.
  RobustOnlineLearner learner(meta.task_names, meta.config);
  std::unique_ptr<SessionStore> store =
      SessionStore::create(config, meta, learner);
  std::uint64_t seq = 0;
  for (const Period& p : trace.periods()) {
    if (seq >= tail_periods) break;
    const std::vector<Event> evs = p.to_events();
    store->append_period(++seq, evs);
    learner.observe_raw_period(evs);
  }
  (void)store->flush();
  store.reset();  // "crash": nothing beyond the WAL survives

  RecoveryCell cell;
  cell.tail_periods = tail_periods;
  Stopwatch w;
  RecoveryReport report = recover_all(config);
  cell.recover_ms = w.elapsed_ms();
  cell.replayed = report.replayed_periods;
  cell.byte_identical =
      report.sessions.size() == 1 && report.sessions[0].seq == tail_periods &&
      learner_bytes(report.sessions[0].learner) == learner_bytes(learner);
  report.sessions.clear();  // close the re-attached WALs
  fs::remove_all(config.dir);
  return cell;
}

}  // namespace

int main() {
  const bool full = bench::full_scale();

  std::ostringstream snaps;
  {
    bench::heading("E11a — snapshot size / write cost vs model size");
    const Trace trace = bench::gm_trace(7, 54);
    const std::vector<std::size_t> sizes =
        full ? std::vector<std::size_t>{1, 4, 8, 16, 27, 54}
             : std::vector<std::size_t>{1, 8, 27, 54};
    bool first = true;
    for (const std::size_t periods : sizes) {
      const SnapshotCell c = measure_snapshot(trace, periods);
      std::printf("periods=%3zu (%5zu events): %6zu B, encode %.2f ms, "
                  "atomic write %.2f ms, load %.2f ms\n",
                  c.periods, c.events, c.snapshot_bytes, c.encode_ms,
                  c.write_ms, c.load_ms);
      snaps << (first ? "" : ",\n")
            << "    {\"periods\": " << c.periods
            << ", \"events\": " << c.events
            << ", \"snapshot_bytes\": " << c.snapshot_bytes
            << ", \"encode_ms\": " << c.encode_ms
            << ", \"write_ms\": " << c.write_ms
            << ", \"load_ms\": " << c.load_ms << "}";
      first = false;
    }
  }

  bool within_budget = true;
  std::ostringstream walcells;
  {
    bench::heading("E11b — WAL append overhead per period (<5% budget)");
    const Trace trace = bench::gm_trace(7);
    const std::size_t rounds = full ? 32 : 8;
    bool first = true;
    for (const std::size_t fsync_every : {std::size_t{32}, std::size_t{1}}) {
      const OverheadCell c = measure_overhead(trace, rounds, fsync_every);
      // The <5% acceptance budget applies to the default group-commit
      // interval; fsync-per-period is reported as the price of maximum
      // machine-crash durability.
      const bool enforced = fsync_every == 32;
      if (enforced && c.overhead_pct >= 5.0) within_budget = false;
      std::printf("fsync_every=%2zu: %.2f ms in WAL of %.1f ms ingest "
                  "over %zu periods -> %.3f%% (%.1f us/period)%s\n",
                  c.fsync_every, c.wal_ms, c.ingest_ms, c.periods,
                  c.overhead_pct, c.wal_us_per_period,
                  enforced && c.overhead_pct >= 5.0 ? "  ** OVER BUDGET **"
                                                    : "");
      walcells << (first ? "" : ",\n")
               << "    {\"fsync_every\": " << c.fsync_every
               << ", \"periods\": " << c.periods
               << ", \"ingest_ms\": " << c.ingest_ms
               << ", \"wal_ms\": " << c.wal_ms
               << ", \"overhead_pct\": " << c.overhead_pct
               << ", \"wal_us_per_period\": " << c.wal_us_per_period
               << ", \"budget_enforced\": " << (enforced ? "true" : "false")
               << "}";
      first = false;
    }
  }

  bool all_identical = true;
  std::ostringstream reccells;
  {
    bench::heading("E11c — recovery latency vs WAL tail length");
    const std::vector<std::size_t> tails =
        full ? std::vector<std::size_t>{0, 8, 27, 54, 108}
             : std::vector<std::size_t>{0, 8, 27, 54};
    bool first = true;
    for (const std::size_t tail : tails) {
      const RecoveryCell c = measure_recovery(tail);
      all_identical = all_identical && c.byte_identical;
      std::printf("tail=%3zu periods: recover %.2f ms, replayed %llu, "
                  "byte-identical=%s\n",
                  c.tail_periods, c.recover_ms,
                  static_cast<unsigned long long>(c.replayed),
                  c.byte_identical ? "yes" : "NO");
      reccells << (first ? "" : ",\n")
               << "    {\"tail_periods\": " << c.tail_periods
               << ", \"recover_ms\": " << c.recover_ms
               << ", \"replayed\": " << c.replayed
               << ", \"byte_identical\": "
               << (c.byte_identical ? "true" : "false") << "}";
      first = false;
    }
  }

  std::ostringstream doc;
  doc << "{\n"
      << "  \"bench\": \"recovery\",\n"
      << "  \"wal_overhead_budget_pct\": 5.0,\n"
      << "  \"within_budget\": " << (within_budget ? "true" : "false")
      << ",\n"
      << "  \"recovery_byte_identical\": "
      << (all_identical ? "true" : "false") << ",\n"
      << "  \"snapshots\": [\n" << snaps.str() << "\n  ],\n"
      << "  \"wal_overhead\": [\n" << walcells.str() << "\n  ],\n"
      << "  \"recovery\": [\n" << reccells.str() << "\n  ]\n"
      << "}\n";

  std::printf("\n%s", doc.str().c_str());
  if (std::FILE* f = std::fopen("BENCH_recovery.json", "w")) {
    std::fputs(doc.str().c_str(), f);
    std::fclose(f);
  }
  return (within_budget && all_identical) ? 0 : 1;
}
