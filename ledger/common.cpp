// Shared pieces of the ledger benchmark (see ledger.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "gen/scenarios.hpp"
#include "ledger.hpp"
#include "lattice/matrix_io.hpp"
#include "serve/net.hpp"

#ifndef BBMG_SERVED_BIN
#error "BBMG_SERVED_BIN must name the bbmg_served executable"
#endif

namespace ledger {

using namespace bbmg;
namespace fs = std::filesystem;

namespace {

/// Replay traces cycle through these task counts so the learner's t^2
/// working set varies across sessions (README.md: why 8..16).
constexpr std::size_t kReplayTasks[] = {8, 10, 12, 14, 16};
constexpr std::size_t kReplayPeriods = 32;
constexpr double kCommitGraceS = 1.0;  // commit wait after the schedule
constexpr int kQueryEveryUs = 1000;     // paced query connection

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

std::uint16_t free_port() {
  const net::Listener l = net::listen_tcp(0, 1);
  const std::uint16_t port = l.port;
  net::close_socket(l.fd);
  return port;
}

}  // namespace

// -- small utilities ---------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}


// -- the result --------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics.push_back({name, {value, unit}});
  std::printf("metric %-36s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::timing(const std::string& what, const Summary& s,
                    const std::string& unit) const {
  std::printf("timing %-40s p50 %.6g %s, p%g %.6g %s (n=%zu%s)\n",
              what.c_str(), s.p50, unit.c_str(), s.tail_pct, s.tail,
              unit.c_str(), s.n,
              s.tail_supported ? "" : ", tail NOT supported by n");
}

void Report::mismatch(const std::string& why) {
  correct = false;
  std::printf("MISMATCH: %s\n", why.c_str());
}

void Report::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

// -- inputs ------------------------------------------------------------------

SessionInput session_from(const Trace& trace) {
  SessionInput s;
  s.names = trace.task_names();
  s.periods = trace.periods();
  for (const Period& p : s.periods) {
    s.events.push_back(p.to_events());
    s.total_events += s.events.back().size();
  }
  return s;
}

void digest_session(Digest& d, const SessionInput& s) {
  for (const std::string& n : s.names) d.add(n.data(), n.size());
  for (const auto& period : s.events) {
    d.add_u64(period.size());
    for (const Event& e : period) {
      d.add_u64(static_cast<std::uint64_t>(e.time));
      d.add_u64(static_cast<std::uint64_t>(e.kind));
      d.add_u64(e.task.index());
      d.add_u64(e.can_id);
    }
  }
}

Trace gm_trace(std::uint64_t seed, std::size_t i) {
  return bench::gm_trace(mix_seed(seed, 1, i));
}

SessionInput gm_input(std::uint64_t seed, std::size_t i) {
  return session_from(gm_trace(seed, i));
}

SessionInput replay_input(std::uint64_t seed, std::size_t conn,
                          std::size_t k) {
  ScenarioConfig sc;
  sc.model.num_tasks = kReplayTasks[(conn + k) % std::size(kReplayTasks)];
  sc.model.num_layers = 3;
  sc.model.num_ecus = 3;
  sc.num_periods = kReplayPeriods;
  sc.seed = mix_seed(seed, 2 + conn, k);
  return session_from(scenario_trace(sc));
}

SessionInput live_input(std::uint64_t seed) {
  return session_from(bench::gm_trace(mix_seed(seed, 10, 0), kLivePeriods));
}

// -- correctness oracles -----------------------------------------------------

RobustSnapshot offline_replay(const SessionInput& s, std::size_t periods,
                              std::size_t bound) {
  RobustConfig cfg;
  cfg.online.bound = bound;
  RobustOnlineLearner learner(s.names, cfg);
  for (std::size_t i = 0; i < periods; ++i) {
    (void)learner.observe_raw_period(s.events[i]);
  }
  return learner.full_snapshot();
}

std::string compare_snapshot(const WireSnapshot& served,
                             const RobustSnapshot& offline,
                             const std::vector<std::string>& names) {
  auto field = [](const char* what, std::uint64_t a, std::uint64_t b) {
    return std::string(what) + " " + std::to_string(a) + " != offline " +
           std::to_string(b);
  };
  if (served.periods_seen != offline.periods_seen) {
    return field("periods_seen", served.periods_seen, offline.periods_seen);
  }
  if (served.periods_learned != offline.periods_learned) {
    return field("periods_learned", served.periods_learned,
                 offline.periods_learned);
  }
  if (served.periods_quarantined != offline.periods_quarantined) {
    return field("periods_quarantined", served.periods_quarantined,
                 offline.periods_quarantined);
  }
  if (served.repairs != offline.repairs) {
    return field("repairs", served.repairs, offline.repairs);
  }
  if (served.health != offline.health) return "health mismatch";
  if (served.converged != offline.result.converged()) {
    return "converged flag mismatch";
  }
  if (served.num_hypotheses != offline.result.hypotheses.size()) {
    return field("num_hypotheses", served.num_hypotheses,
                 offline.result.hypotheses.size());
  }
  // The server sends an empty matrix for a session that never learned.
  const DependencyMatrix lub = offline.result.hypotheses.empty()
                                   ? DependencyMatrix(0)
                                   : offline.result.lub();
  if (served.weight != lub.weight()) {
    return field("lub weight", served.weight, lub.weight());
  }
  if (served.lub.num_tasks() != lub.num_tasks()) {
    return field("lub size", served.lub.num_tasks(), lub.num_tasks());
  }
  if (lub.num_tasks() != 0 &&
      matrix_to_string(served.lub, names) != matrix_to_string(lub, names)) {
    return "dLUB matrix mismatch";
  }
  return "";
}

// -- daemons -----------------------------------------------------------------

Deployment deploy(const std::string& dir, std::size_t fsync_every,
                  bool with_follower, bool traced) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> common;
  if (fsync_every != 0) {
    common = {"--fsync-every", std::to_string(fsync_every)};
  }
  if (traced) common.insert(common.end(), {"--trace", "--span-ring", "262144"});
  common.insert(common.end(), {"--log-level", "warn"});
  const std::string nworkers = std::to_string(nproc());
  Deployment d;
  if (!with_follower) {
    std::vector<std::string> args{"0", nworkers, "256", "--data-dir",
                                  dir + "/primary"};
    args.insert(args.end(), common.begin(), common.end());
    d.primary = std::make_unique<Daemon>(BBMG_SERVED_BIN, args,
                                         dir + "/primary.log");
    return d;
  }
  const std::uint16_t pport = free_port();
  const std::uint16_t fport = free_port();
  const std::string map = dir + "/cluster.map";
  std::ofstream(map) << "epoch 1\nshard 127.0.0.1:" << pport
                     << " 127.0.0.1:" << fport << "\n";
  auto node = [&](std::uint16_t port, const std::string& name) {
    std::vector<std::string> args{
        std::to_string(port), nworkers, "256", "--data-dir", dir + "/" + name,
        "--cluster-map", map, "--shard", "0"};
    if (name == "follower") args.push_back("--follower");
    args.insert(args.end(), common.begin(), common.end());
    return std::make_unique<Daemon>(BBMG_SERVED_BIN, args,
                                    dir + "/" + name + ".log");
  };
  d.follower = node(fport, "follower");
  d.primary = node(pport, "primary");
  return d;
}

// -- open-loop generator -----------------------------------------------------

OpenLoopResult run_open_loop(const OpenLoopPlan& plan,
                             const Sideline& sideline) {
  OpenLoopResult res;
  const std::size_t n =
      std::min(static_cast<std::size_t>(plan.rate * plan.seconds),
               plan.input->events.size());
  res.slots.resize(n);
  const std::int64_t start = now_ns() + 20'000'000;  // threads get going
  for (std::size_t i = 0; i < n; ++i) {
    res.slots[i].due_ns =
        start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                          plan.rate);
  }
  res.end_ns = start + static_cast<std::int64_t>(plan.seconds * 1e9);
  res.horizon = res.end_ns + static_cast<std::int64_t>(kCommitGraceS * 1e9);

  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stop{false};
  std::thread generator([&] {
    std::size_t i = 0;
    try {
      ServeClient c;
      c.connect("127.0.0.1", plan.port);
      for (; i < n; ++i) {
        Slot& slot = res.slots[i];
        sleep_until_ns(slot.due_ns);
        slot.sent_ns = now_ns();
        c.send_period(plan.sid, plan.input->events[i], i + 1);
        sent.store(i + 1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      std::printf("open loop: generator failed: %s\n", e.what());
      for (; i < n; ++i) res.slots[i].failed = true;
    }
  });
  std::thread acker([&] {
    try {
      ServeClient c;
      c.connect("127.0.0.1", plan.port);
      for (std::size_t done = 0; done < n && now_ns() <= res.horizon;) {
        const std::uint64_t hw = c.resume(plan.sid);
        const std::int64_t at = now_ns();
        for (; done < n && done < hw; ++done) res.slots[done].committed_ns = at;
      }
    } catch (const std::exception& e) {
      std::printf("open loop: acker failed: %s\n", e.what());
    }
    stop.store(true);
  });
  std::thread side([&] { sideline(stop, sent); });
  generator.join();
  acker.join();
  side.join();
  return res;
}

void run_queries(std::uint16_t port,
                 const std::function<std::uint32_t(std::size_t)>& pick,
                 const std::atomic<bool>& done, QueryLoad& out) {
  ServeClient q;
  q.connect("127.0.0.1", port);
  std::int64_t next = now_ns();
  for (std::size_t i = 0; !done.load(); ++i) {
    next += kQueryEveryUs * 1000LL;
    sleep_until_ns(next);
    const std::uint32_t sid = pick(i);
    if (sid != UINT32_MAX) {
      ++out.attempted;
      try {
        const std::int64_t t0 = now_ns();
        (void)q.query(sid, /*drain=*/false);
        out.query_ms.push_back(ms_since(t0));
      } catch (const std::exception&) {
        ++out.failed;
        q.disconnect();
        q.connect("127.0.0.1", port);
      }
    }
  }
}

}  // namespace ledger
