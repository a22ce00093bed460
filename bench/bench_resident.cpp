// Experiment E17 — sizing kWarmSessionCap, the number of durable sessions
// a SessionManager keeps in memory (serve/session_manager.hpp).
//
// The cap trades memory for rebuilds, so the bench measures both sides on
// replay-shaped sessions (8-16 tasks, 32 periods each, bound 16, every
// upload flushed — the mix a closed-loop uploader produces):
//   (a) resident cost: live heap per in-memory session, and what the cap
//       therefore costs at most;
//   (b) under the cap: kWarmSessionCap/2 sessions queried round robin —
//       every query is a pointer copy, no session is ever rebuilt;
//   (c) over the cap: 4 x kWarmSessionCap sessions queried round robin —
//       every query finds its session cold and loads it from the snapshot
//       its eviction wrote (and displaces, so checkpoints, another); the
//       live heap must stay at the cap's cost;
//   (d) the largest session of the mix (snapshot_every - 1 periods), cold.
// Every rebuilt session must serve the model it served before eviction
// (exit 1 otherwise).  Output: one JSON document, printed and written to
// BENCH_resident.json.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "gen/scenarios.hpp"
#include "serve/session_manager.hpp"

using namespace bbmg;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kTasks[] = {8, 10, 12, 14, 16};

Trace replay_trace(std::size_t k, std::size_t periods) {
  ScenarioConfig sc;
  sc.model.num_tasks = kTasks[k % std::size(kTasks)];
  sc.model.num_layers = 3;
  sc.model.num_ecus = 3;
  sc.num_periods = periods;
  sc.seed = 1000 + k;
  return scenario_trace(sc);
}

std::size_t live_heap() { return mallinfo2().uordblks; }

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Latency summarize(std::vector<double> us) {
  std::sort(us.begin(), us.end());
  Latency l;
  if (us.empty()) return l;
  l.p50_us = us[us.size() / 2];
  l.p99_us = us[std::min(us.size() - 1, us.size() * 99 / 100)];
  return l;
}

class Fleet {
 public:
  explicit Fleet(SessionManager& mgr) : mgr_(mgr) {}

  /// Open, upload and flush one more session; remember what it serves.
  void add(std::size_t periods = 32) {
    const Trace trace = replay_trace(ids_.size(), periods);
    SessionConfig cfg;
    cfg.robust.online.bound = 16;
    const SessionId id = mgr_.open_session(trace.task_names(), cfg);
    for (auto& events : to_raw_periods(trace)) {
      (void)mgr_.submit(id, std::move(events));
    }
    (void)mgr_.resume_high_water(id);
    ids_.push_back(id);
    served_.push_back(fingerprint(*mgr_.query(id).snapshot));
  }

  /// Query sessions [0, n) round robin `rounds` times; per-query latency.
  /// Counts queries that did not serve the pre-eviction model.
  std::vector<double> query_round_robin(std::size_t n, std::size_t rounds) {
    std::vector<double> us;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        Stopwatch sw;
        const QueryResult q = mgr_.query(ids_[i]);
        us.push_back(sw.elapsed_ms() * 1e3);
        if (fingerprint(*q.snapshot) != served_[i]) ++mismatches_;
      }
    }
    return us;
  }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }
  [[nodiscard]] SessionId id(std::size_t i) const { return ids_[i]; }

 private:
  /// FNV-1a over the served model (hypotheses and accounting), so the
  /// bench keeps 8 bytes per session rather than its snapshot.
  static std::uint64_t fingerprint(const RobustSnapshot& snap) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 1099511628211ull;
    };
    for (const DependencyMatrix& m : snap.result.hypotheses) {
      for (const DepValue v : m.cells()) mix(static_cast<std::uint64_t>(v));
    }
    mix(snap.result.hypotheses.size());
    mix(snap.result.stats.merges);
    mix(snap.periods_seen);
    mix(snap.periods_quarantined);
    mix(static_cast<std::uint64_t>(snap.health));
    return h;
  }

  SessionManager& mgr_;
  std::vector<SessionId> ids_;
  std::vector<std::uint64_t> served_;
  std::size_t mismatches_ = 0;
};

}  // namespace

int main() {
  bench::heading("E17: resident sessions — kWarmSessionCap = " +
                 std::to_string(kWarmSessionCap));
  const std::string dir =
      (fs::temp_directory_path() / "bbmg_bench_resident").string();
  fs::remove_all(dir);
  durable::DurableConfig durable{dir, 32, 256};
  SessionManager mgr(ManagerConfig{2, 256, durable});
  Fleet fleet(mgr);

  // (a) + (b): fill to half the cap; nothing is evicted yet.  The first
  // sessions pay one-time costs (thread arenas, metric series), so the
  // per-session figure is taken over the rest.
  const std::size_t under = kWarmSessionCap / 2;
  const std::size_t warmup = 16;
  while (fleet.size() < warmup) fleet.add();
  malloc_trim(0);
  const std::size_t heap0 = live_heap();
  while (fleet.size() < under) fleet.add();
  malloc_trim(0);
  const double bytes_per_session =
      static_cast<double>(live_heap() - heap0) /
      static_cast<double>(under - warmup);
  const double cap_mb =
      bytes_per_session * static_cast<double>(kWarmSessionCap) / 1048576.0;
  const Latency warm = summarize(fleet.query_round_robin(under, 8));
  const std::size_t resident_under = mgr.num_resident_sessions();

  // (c): 4x the cap; the round robin always reaches for the coldest one.
  const std::size_t over = 4 * kWarmSessionCap;
  while (fleet.size() < over) fleet.add();
  const Latency cold = summarize(fleet.query_round_robin(over, 2));
  malloc_trim(0);
  const double over_heap_mb =
      static_cast<double>(live_heap() - heap0) / 1048576.0;
  const std::size_t resident_over = mgr.num_resident_sessions();

  // (d): the largest session before periodic compaction would trim it.
  const std::size_t longest = durable.snapshot_every - 1;
  fleet.add(longest);
  const std::size_t long_index = fleet.size() - 1;
  for (std::size_t i = 0; i < kWarmSessionCap; ++i) fleet.add();
  Stopwatch long_sw;
  (void)mgr.query(fleet.id(long_index));
  const double long_rebuild_ms = long_sw.elapsed_ms();

  mgr.stop();
  fs::remove_all(dir);

  std::printf("resident session: %.0f B live heap -> cap costs %.2f MB\n",
              bytes_per_session, cap_mb);
  std::printf("under the cap (%zu sessions, %zu resident): query p50 %.2f us, "
              "p99 %.2f us\n",
              under, resident_under, warm.p50_us, warm.p99_us);
  std::printf("over the cap (%zu sessions, %zu resident): query p50 %.1f us, "
              "p99 %.1f us, live heap %.2f MB\n",
              over, resident_over, cold.p50_us, cold.p99_us, over_heap_mb);
  std::printf("cold query of a %zu-period session: %.2f ms\n", longest,
              long_rebuild_ms);
  std::printf("rebuilt sessions serving a different model: %zu\n",
              fleet.mismatches());

  std::ostringstream js;
  js << "{\n  \"bench\": \"resident\",\n"
     << "  \"cap\": " << kWarmSessionCap << ",\n"
     << "  \"bytes_per_session\": " << bytes_per_session << ",\n"
     << "  \"cap_mb\": " << cap_mb << ",\n"
     << "  \"under\": {\"sessions\": " << under
     << ", \"resident\": " << resident_under
     << ", \"query_p50_us\": " << warm.p50_us
     << ", \"query_p99_us\": " << warm.p99_us << "},\n"
     << "  \"over\": {\"sessions\": " << over
     << ", \"resident\": " << resident_over
     << ", \"query_p50_us\": " << cold.p50_us
     << ", \"query_p99_us\": " << cold.p99_us
     << ", \"live_heap_mb\": " << over_heap_mb << "},\n"
     << "  \"largest_cold\": {\"periods\": " << longest
     << ", \"ms\": " << long_rebuild_ms << "},\n"
     << "  \"mismatches\": " << fleet.mismatches() << "\n}\n";
  std::printf("%s", js.str().c_str());
  if (std::FILE* f = std::fopen("BENCH_resident.json", "w")) {
    std::fputs(js.str().c_str(), f);
    std::fclose(f);
  }
  return fleet.mismatches() == 0 ? 0 : 1;
}
