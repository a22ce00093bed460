// Experiment E14 — cost and efficacy of the telemetry plane (src/monitor):
//
//   (a) overhead: a real 2-shard cluster (primaries + followers, spawned
//       through the ShardSupervisor) serves a closed-loop fleet while a
//       Monitor scrapes every node plus the in-process fleet registry at a
//       1 s cadence.  The monitor's own CPU time across those ticks —
//       scrape decode, store append, SLO evaluation — must stay below 1%
//       of the served-ingest wall time.  CPU, not wall: a tick spends most
//       of its wall time blocked on sockets waiting for a loaded server to
//       answer, and that waiting taxes nobody.  Wall time is reported
//       alongside for transparency.
//   (b) efficacy: the same fleet is then replayed through ChaosProxies
//       fronting both primaries with heavy injected reply delays (the
//       network incident, manufactured on demand).  The SLO engine's
//       client-rtt objective must transition to Page on the incident and
//       recover to Ok on clean traffic afterwards.  A telemetry plane
//       whose burn-rate math misses a 10x latency regression is
//       decoration, so a missed page fails the bench (exit 1).
//
// SLO windows are evaluated on caller-supplied timestamps, so phase (b)
// drives a synthetic clock (jumping past the old windows between phases)
// while the scrapes themselves hit the real sockets.  Output is one JSON
// document, printed and written to BENCH_monitor.json.
#include <ctime>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/supervisor.hpp"
#include "common/stopwatch.hpp"
#include "fleet/driver.hpp"
#include "monitor/aggregate.hpp"
#include "monitor/monitor.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos_proxy.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must point at the bbmg_served executable"
#endif

using namespace bbmg;

namespace {

namespace fs = std::filesystem;

constexpr double kOverheadBudgetPct = 1.0;

// CPU time of the calling thread, in milliseconds.  Ticks run on the main
// thread, so bracketing them with this measures the monitor's own compute
// and excludes time blocked on scrape sockets.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string fresh_dir() {
  const std::string dir =
      (fs::temp_directory_path() / "bbmg_bench_monitor").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

monitor::AlertState objective_state(const monitor::HealthReport& report,
                                    const std::string& name) {
  for (const monitor::ObjectiveStatus& o : report.objectives) {
    if (o.name == name) return o.state;
  }
  return monitor::AlertState::Ok;
}

std::string objective_detail(const monitor::HealthReport& report,
                             const std::string& name) {
  for (const monitor::ObjectiveStatus& o : report.objectives) {
    if (o.name == name) return o.detail;
  }
  return "";
}

}  // namespace

int main() {
  const bool full = bench::full_scale();
  bench::heading("E14: telemetry plane over a live 2-shard cluster");

  cluster::SupervisorConfig sup;
  sup.served_bin = BBMG_SERVED_BIN;
  sup.root_dir = fresh_dir();
  sup.shards = 2;
  sup.followers = true;
  sup.workers = 4;
  sup.queue_capacity = 256;
  sup.fsync_every = 256;
  cluster::ShardSupervisor supervisor(sup);
  supervisor.start();

  monitor::MonitorConfig mcfg;
  mcfg.listen = false;  // ticked by hand: the bench is its own clock
  monitor::Monitor mon(mcfg);  // stock objectives
  mon.add_cluster_map(supervisor.map());
  // The fleet driver's client-side metrics (RTTs, request errors) live in
  // this process's registry — the monitor watches it like any endpoint.
  mon.add_local("fleet", &obs::MetricsRegistry::instance());

  // ---- (a) scrape overhead under baseline load ---------------------------
  fleet::FleetConfig fcfg;
  fcfg.deployments = full ? 256 : 64;
  fcfg.periods = full ? 6 : 4;
  fcfg.pumps = 8;
  fcfg.seed = 1142;
  fcfg.map = supervisor.map();
  // Throughput phase: byte-identity is bench_fleet/E13's claim.
  fcfg.verify_fraction = 0.0;

  std::atomic<bool> fleet_done{false};
  fleet::FleetReport baseline;
  Stopwatch ingest_wall;
  std::thread runner([&] {
    baseline = fleet::run_fleet(fcfg);
    fleet_done.store(true);
  });

  double tick_wall_ms = 0.0;
  double tick_cpu_ms = 0.0;
  std::uint64_t ticks = 0;
  while (!fleet_done.load()) {
    Stopwatch tick_wall;
    const double cpu_before = thread_cpu_ms();
    mon.tick(monitor::Monitor::wall_ms());
    tick_cpu_ms += thread_cpu_ms() - cpu_before;
    tick_wall_ms += tick_wall.elapsed_ms();
    ++ticks;
    for (int i = 0; i < 100 && !fleet_done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  runner.join();
  const double ingest_ms = ingest_wall.elapsed_ms();
  {
    // One closing tick so the report covers the whole run.
    Stopwatch tick_wall;
    const double cpu_before = thread_cpu_ms();
    mon.tick(monitor::Monitor::wall_ms());
    tick_cpu_ms += thread_cpu_ms() - cpu_before;
    tick_wall_ms += tick_wall.elapsed_ms();
    ++ticks;
  }

  const double overhead_pct =
      ingest_ms > 0.0 ? tick_cpu_ms / ingest_ms * 100.0 : 0.0;
  const bool overhead_ok = overhead_pct < kOverheadBudgetPct;
  const monitor::HealthReport healthy = mon.report();
  const monitor::TsStoreStats stats = mon.store().stats();

  std::printf("baseline: %llu periods %llu events in %.2fs — %.0f ev/s\n",
              static_cast<unsigned long long>(baseline.periods_sent),
              static_cast<unsigned long long>(baseline.events_sent),
              baseline.wall_seconds, baseline.events_per_sec);
  std::printf("monitor: %llu ticks over %zu endpoints, %zu series "
              "(%zu samples, %.1f KiB encoded)\n",
              static_cast<unsigned long long>(ticks),
              healthy.endpoints.size(), stats.series, stats.samples,
              static_cast<double>(stats.encoded_bytes) / 1024.0);
  std::printf("scrape+store+evaluate: %.2f ms CPU (%.2f ms wall, mostly "
              "socket waits) of %.0f ms ingest = %.4f%% (budget %.1f%%)\n",
              tick_cpu_ms, tick_wall_ms, ingest_ms, overhead_pct,
              kOverheadBudgetPct);
  std::printf("baseline health: %s\n",
              monitor::alert_state_name(healthy.overall));
  const std::vector<monitor::ReplicationLag> lags =
      monitor::replication_lags(mon.store());
  for (const monitor::ReplicationLag& lag : lags) {
    std::printf("  replication %s -> %s: %llu periods behind\n",
                lag.primary.c_str(), lag.follower.c_str(),
                static_cast<unsigned long long>(lag.lag_periods));
  }

  // ---- (b) injected latency incident -> Page -> recovery -----------------
  // Chaos proxies front both primaries; rerouting the map through them
  // leaves rendezvous routing intact (it hashes keys and shard indices,
  // not addresses), so every request takes the delayed path.
  net::ChaosConfig chaos;
  chaos.seed = 9;
  chaos.delay_prob = 1.0;
  // Delays are uniform in [0, max], so the max must sit far above the
  // 65536 us client-rtt threshold for nearly every delayed round trip to
  // breach it.
  chaos.max_delay_us = 900'000;
  const cluster::ClusterMap& real_map = supervisor.map();
  ChaosProxy proxy0(real_map.shards[0].primary.host,
                    real_map.shards[0].primary.port, chaos);
  ChaosProxy proxy1(real_map.shards[1].primary.host,
                    real_map.shards[1].primary.port, chaos);
  cluster::ClusterMap chaos_map = real_map;
  chaos_map.shards[0].primary = {"127.0.0.1", proxy0.port()};
  chaos_map.shards[1].primary = {"127.0.0.1", proxy1.port()};

  // Jump the synthetic clock far past every wall-stamped sample so the
  // burn windows see only the incident-phase scrapes.
  const std::uint64_t t0 = monitor::Monitor::wall_ms() + 400'000;
  mon.tick(t0);  // pre-incident sample

  // One period per deployment, every session verified: period sends are
  // pipelined against the unacked window (their recorded RTT is just the
  // local write), so the round-trip requests — open_session, the
  // settlement flush + verify query, connection handshakes — are what the
  // injected delays inflate.  Skewing the mix toward those keeps the bad
  // fraction decisively above the 40% an 8x burn needs, and the verify
  // pass doubles as proof that a slow network still yields byte-correct
  // models.
  fleet::FleetConfig ccfg = fcfg;
  ccfg.deployments = 16;
  ccfg.periods = 1;
  ccfg.pumps = 4;
  ccfg.seed = 77;
  ccfg.map = chaos_map;
  ccfg.verify_fraction = 1.0;
  const fleet::FleetReport incident_run = fleet::run_fleet(ccfg);
  mon.tick(t0 + 30'000);  // post-incident sample: both windows go bad

  const monitor::HealthReport incident = mon.report();
  const bool paged =
      objective_state(incident, "client-rtt") == monitor::AlertState::Page;
  std::printf("\nincident: %llu periods through %.0f ms max-delay proxies "
              "(%llu proxied conns)\n",
              static_cast<unsigned long long>(incident_run.periods_sent),
              static_cast<double>(chaos.max_delay_us) / 1000.0,
              static_cast<unsigned long long>(proxy0.connections() +
                                              proxy1.connections()));
  std::printf("client-rtt: %s — %s\n",
              monitor::alert_state_name(
                  objective_state(incident, "client-rtt")),
              objective_detail(incident, "client-rtt").c_str());

  // Recovery: clean traffic on the real map, windows jumped past the
  // incident samples.
  proxy0.stop();
  proxy1.stop();
  const std::uint64_t t1 = t0 + 430'000;
  mon.tick(t1);
  fleet::FleetConfig rcfg = ccfg;
  rcfg.seed = 78;
  rcfg.map = real_map;
  (void)fleet::run_fleet(rcfg);
  mon.tick(t1 + 30'000);
  const monitor::HealthReport recovered = mon.report();
  const bool recovery_ok = objective_state(recovered, "client-rtt") ==
                           monitor::AlertState::Ok;
  std::printf("recovery: client-rtt %s\n",
              monitor::alert_state_name(
                  objective_state(recovered, "client-rtt")));

  const int drain = supervisor.terminate_all();

  const bool efficacy_ok = paged && recovery_ok;
  const bool fleet_ok = baseline.ok() && incident_run.ok();

  std::ostringstream doc;
  doc << "{\n"
      << "  \"bench\": \"monitor\",\n"
      << "  \"cluster\": {\"shards\": 2, \"followers\": true},\n"
      << "  \"baseline\": {\"deployments\": " << fcfg.deployments
      << ", \"periods\": " << baseline.periods_sent
      << ", \"events\": " << baseline.events_sent
      << ", \"wall_ms\": " << ingest_ms
      << ", \"events_per_sec\": " << baseline.events_per_sec << "},\n"
      << "  \"monitor\": {\"ticks\": " << ticks
      << ", \"endpoints\": " << healthy.endpoints.size()
      << ", \"series\": " << stats.series
      << ", \"samples\": " << stats.samples
      << ", \"encoded_bytes\": " << stats.encoded_bytes
      << ", \"tick_cpu_ms\": " << tick_cpu_ms
      << ", \"tick_wall_ms\": " << tick_wall_ms
      << ", \"overhead_pct\": " << overhead_pct
      << ", \"budget_pct\": " << kOverheadBudgetPct
      << ", \"within_budget\": " << (overhead_ok ? "true" : "false")
      << "},\n"
      << "  \"incident\": {\"max_delay_us\": " << chaos.max_delay_us
      << ", \"paged\": " << (paged ? "true" : "false")
      << ", \"recovered\": " << (recovery_ok ? "true" : "false") << "},\n"
      << "  \"fleet_ok\": " << (fleet_ok ? "true" : "false") << ",\n"
      << "  \"drain_exit\": " << drain << "\n"
      << "}\n";

  std::printf("\n%s", doc.str().c_str());
  if (std::FILE* f = std::fopen("BENCH_monitor.json", "w")) {
    std::fputs(doc.str().c_str(), f);
    std::fclose(f);
  }
  return overhead_ok && efficacy_ok && fleet_ok && drain == 0 ? 0 : 1;
}
