// bbmg_ledger: the repository benchmark.  One command, three workloads,
// every input generated from --seed, the real bbmg_served daemon as a
// subprocess, and a correctness gate on every served model.
//
//   bbmg_ledger --workload gm_batch_b64|replay_b16|live_b1_durable_replicated
//               --seed <n> --seconds <s> --trace 0|1 --work <dir>
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// inputs up the layer ladder (ladder.cpp) and prints the per-layer
// metrics.  live_b1_durable_replicated runs traced only (README.md says
// why).  The last stdout line is one JSON object {correct, attempted,
// failed, metrics}; the lines before it are the machine record, the seed
// self-check and every metric with its sample count.  Exit status: 0 ok,
// 1 usage or runtime error (no result printed), 3 a correctness mismatch.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristic_learner.hpp"
#include "core/matching.hpp"
#include "core/online_learner.hpp"
#include "ledger.hpp"
#include "obs/alloc_track.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "serve/net.hpp"
#include "serve/resilient_client.hpp"

#ifndef BBMG_LEDGER_BUILD_TYPE
#define BBMG_LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {

using namespace bbmg;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kGmMinTraces = 4;  // medians over at least 4 traces
constexpr int kGmSetupReps = 15;
constexpr double kGmTailPct = 90.0;  // printed; a run supports it from 100
constexpr int kGmQueryBurst = 64;
constexpr std::size_t kReplayPregen = 8;  // traces per connection in set-up
constexpr double kReplayTailPct = 99.0;
constexpr int kReplaySetupReps = 9;

double own_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ok_frac(const Report& rep) {
  const auto attempted = std::max<std::uint64_t>(rep.attempted, 1);
  return 1.0 - static_cast<double>(rep.failed) / static_cast<double>(attempted);
}

/// Median of 64 appends+fsyncs of 256 bytes in `dir`, microseconds.
double fsync_p50_us(const std::string& dir) {
  const std::string path = dir + "/fsync-probe";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0.0;
  std::vector<double> us;
  const std::vector<char> block(256, 'x');
  for (int i = 0; i < 64; ++i) {
    std::fwrite(block.data(), 1, block.size(), f);
    std::fflush(f);
    const std::int64_t t0 = now_ns();
    ::fsync(::fileno(f));
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  std::fclose(f);
  fs::remove(path);
  return median_of(us);
}

/// Median time to sum a 32 MiB array, ms: how fast this machine's memory
/// is right now, so runs on a slower or busier box can be told apart (the
/// learner kernels are memory-bound; a CPU-only loop misses contention).
double mem_ref_ms() {
  std::vector<std::uint64_t> data(std::size_t{4} << 20, 1);
  std::vector<double> ms;
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (const std::uint64_t v : data) sum += v;
    ms.push_back(ms_since(t0));
  }
  if (sum != 5 * data.size()) std::printf("mem_ref: bad sum\n");
  return median_of(ms);
}

/// The machine and build this result was measured on.
void print_record(const std::string& work) {
  const obs::PerfCounterGroup pmu;
  std::printf(
      "record {\"nproc\": %zu, \"pmu\": %s, \"build_type\": \"%s\", "
      "\"bbmg_obs\": %s, \"bbmg_alloc_track\": %s, \"fsync_p50_us\": %.1f, "
      "\"mem_ref_ms\": %.2f}\n",
      nproc(), pmu.supported() ? "true" : "false", BBMG_LEDGER_BUILD_TYPE,
      obs::kEnabled ? "true" : "false",
      obs::kAllocTrackEnabled ? "true" : "false", fsync_p50_us(work),
      mem_ref_ms());
}

/// Same seed, same inputs: every set-up repetition must have produced the
/// same digest.  Different seed, different inputs: checked on the
/// workload's first input.
void seed_self_check(Report& rep, std::uint64_t seed,
                     const std::vector<std::uint64_t>& digests,
                     const std::function<SessionInput(std::uint64_t)>& first) {
  const bool same =
      std::all_of(digests.begin(), digests.end(),
                  [&](std::uint64_t d) { return d == digests.front(); });
  Digest a;
  Digest b;
  digest_session(a, first(seed));
  digest_session(b, first(seed + 1));
  std::printf("seed self-check: input digest %016llx; same seed, same digest: "
              "%s; seed+1 differs: %s\n",
              static_cast<unsigned long long>(digests.front()),
              same ? "yes" : "NO", a.h != b.h ? "yes" : "NO");
  if (!same) rep.mismatch("the same seed produced different inputs");
  if (a.h == b.h) rep.mismatch("different seeds produced the same input");
}

}  // namespace

// -- gm_batch_b64 ------------------------------------------------------------
//
// The paper's E2 cell: the bounded learner at b = 64 over GM-scale traces,
// one thread, no serving.  A period is "committed" when observe returns;
// a query is the dLUB summary of the live hypothesis set.

void run_gm(const Options& opt, Report& rep) {
  // Set-up builds the first kGmMinTraces traces, the ones every run learns;
  // a run that finishes them early simulates the next trace untimed.
  struct Inputs {
    std::vector<Trace> sources;
    std::vector<SessionInput> traces;
    std::uint64_t digest{0};
  };
  auto make = [&] {
    Inputs in;
    Digest d;
    for (std::size_t i = 0; i < kGmMinTraces; ++i) {
      in.sources.push_back(gm_trace(opt.seed, i));
      in.traces.push_back(session_from(in.sources.back()));
      digest_session(d, in.traces.back());
    }
    in.digest = d.h;
    return in;
  };
  std::vector<double> setup_s;
  std::vector<std::uint64_t> digests;
  Inputs in;
  // Set-up is cheap here, so it is repeated more often for a steady median.
  for (int r = 0; r < kGmSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    in = make();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    digests.push_back(in.digest);
  }
  seed_self_check(rep, opt.seed, digests,
                  [](std::uint64_t s) { return gm_input(s, 0); });

  // Per trace: learn time (the E2 cell), mean query time, learn rate.
  // Each is a mean over the trace's 27 periods, and the reported value is
  // the median over traces, so a trace slowed by a busy host counts once.
  std::vector<double> trace_ms;
  std::vector<double> query_ms;
  std::vector<double> trace_events_per_s;
  std::size_t periods = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::size_t traces = 0;
  std::size_t theorem4_violations = 0;
  for (; traces < kGmMinTraces || now_ns() < deadline; ++traces) {
    if (traces == in.sources.size()) {
      in.sources.push_back(gm_trace(opt.seed, traces));
      in.traces.push_back(session_from(in.sources.back()));
    }
    const SessionInput& s = in.traces[traces];
    OnlineLearner learner(s.names.size(), OnlineConfig{kGmBound});
    DependencyMatrix lub;
    std::int64_t learn_ns = 0;
    std::int64_t query_ns = 0;
    for (const Period& period : s.periods) {
      const std::int64_t t0 = now_ns();
      learner.observe_period(period);
      const std::int64_t t1 = now_ns();
      // A model query after every period: the dLUB of the live set.  One
      // is sub-microsecond, so a burst of them is timed together.
      for (int q = 0; q < kGmQueryBurst; ++q) lub = learner.snapshot().lub();
      learn_ns += t1 - t0;
      query_ns += now_ns() - t1;
    }
    periods += s.periods.size();
    trace_ms.push_back(static_cast<double>(learn_ns) / 1e6);
    query_ms.push_back(static_cast<double>(query_ns) / 1e6 /
                       static_cast<double>(kGmQueryBurst * s.periods.size()));
    trace_events_per_s.push_back(static_cast<double>(s.total_events) * 1e9 /
                                 static_cast<double>(learn_ns));
    rep.attempted += (1 + kGmQueryBurst) * s.periods.size();
    // Gate: every surviving hypothesis matches its whole trace (Theorem 2).
    const Trace& trace = in.sources[traces];
    const bool sound = std::all_of(
        learner.hypotheses().begin(), learner.hypotheses().end(),
        [&](const Hypothesis& h) { return matches_trace(h.d, trace); });
    if (!sound) {
      rep.failed += s.periods.size();
      rep.mismatch("trace " + std::to_string(traces) +
                   ": a bound-64 hypothesis does not match its trace "
                   "(Theorem 2)");
    }
    // Reported, not gated: bound invariance of the LUB (Theorem 4) does not
    // hold on this tree for some seeds (README.md, "Known defects").
    if (lub != learn_heuristic(trace, 1).lub()) ++theorem4_violations;
  }
  std::printf("gm_batch_b64: %zu traces, %zu periods; Theorem 2 holds on "
              "every trace; the bound-64 LUB differs from the bound-1 LUB "
              "(Theorem 4) on %zu of %zu traces\n",
              traces, periods, theorem4_violations, traces);
  const Summary commit = summarize(trace_ms, kGmTailPct);
  const Summary query = summarize(query_ms, kGmTailPct);
  rep.timing("commit (one trace learned at b64)", commit, "ms");
  rep.timing("query (dLUB of the live set, per-trace mean)", query, "ms");
  rep.metric("setup_s", median_of(setup_s), "s");
  rep.metric("events_per_s", median_of(trace_events_per_s), "events/s");
  rep.metric("commit_ms_p50", commit.p50, "ms");
  rep.metric("ok_frac", ok_frac(rep), "ratio");
  rep.metric("peak_rss_mb", own_peak_rss_mb(), "MB");
}

// -- replay_b16 --------------------------------------------------------------
//
// Closed loop: nproc-1 connections each upload one seeded trace per
// session (send every period, then flush until durable), session after
// session; one more connection queries the live sessions at a fixed pace.

void run_replay(const Options& opt, Report& rep) {
  const std::size_t conns = std::max<std::size_t>(1, nproc() - 1);
  RetryConfig retry;
  retry.ack_interval = std::size_t{1} << 30;  // acks come from flush() only
  retry.request_timeout_ms = 60000;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> digests;
  Deployment dep;
  std::vector<std::vector<SessionInput>> pregen;
  std::vector<std::unique_ptr<ResilientClient>> clients;
  // Set-up is cheap, so it is repeated for a steady median.
  for (int r = 0; r < kReplaySetupReps; ++r) {
    clients.clear();
    dep = Deployment{};  // stop the previous repetition's daemon
    const std::int64_t t0 = now_ns();
    Digest d;
    pregen.assign(conns, {});
    for (std::size_t c = 0; c < conns; ++c) {
      for (std::size_t k = 0; k < kReplayPregen; ++k) {
        pregen[c].push_back(replay_input(opt.seed, c, k));
        digest_session(d, pregen[c].back());
      }
    }
    dep = deploy(opt.work + "/replay", /*fsync_every=*/0,
                 /*with_follower=*/false, /*traced=*/false);
    for (std::size_t c = 0; c < conns; ++c) {
      clients.push_back(std::make_unique<ResilientClient>(retry));
      clients.back()->connect("127.0.0.1", dep.primary->port());
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    digests.push_back(d.h);
  }
  seed_self_check(rep, opt.seed, digests,
                  [](std::uint64_t s) { return replay_input(s, 0, 0); });

  struct Upload {
    std::uint32_t sid{0};
    SessionInput input;
    std::size_t sent{0};
  };
  struct ConnLog {
    std::vector<Upload> uploads;
    std::vector<double> commit_ms;
    std::size_t events_acked{0};
    std::int64_t end_ns{0};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
  };
  const std::uint16_t port = dep.primary->port();
  std::vector<std::atomic<std::uint32_t>> active(conns);
  for (auto& a : active) a.store(UINT32_MAX);
  std::vector<ConnLog> logs(conns);
  std::atomic<std::size_t> running{conns};
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[c];
      ResilientClient& rc = *clients[c];
      try {
        for (std::size_t k = 0; now_ns() < deadline; ++k) {
          Upload up;
          up.input = k < pregen[c].size() ? std::move(pregen[c][k])
                                           : replay_input(opt.seed, c, k);
          up.sid = rc.open_session(up.input.names,
                                   static_cast<std::uint32_t>(kReplayBound));
          active[c].store(up.sid);
          std::vector<std::int64_t> sent_ns;
          std::size_t events = 0;
          for (const auto& period : up.input.events) {
            sent_ns.push_back(now_ns());
            rc.send_period(up.sid, period);
            events += period.size();
            if (now_ns() >= deadline) break;
          }
          up.sent = sent_ns.size();
          log.attempted += up.sent;
          const std::uint64_t hw = rc.flush(up.sid);
          const std::int64_t acked = now_ns();
          if (hw != up.sent) {
            log.failed += up.sent;
          } else {
            for (const std::int64_t t : sent_ns) {
              log.commit_ms.push_back(static_cast<double>(acked - t) / 1e6);
            }
            log.events_acked += events;
          }
          log.end_ns = acked;
          log.uploads.push_back(std::move(up));
        }
      } catch (const std::exception& e) {
        std::printf("replay connection %zu failed: %s\n", c, e.what());
        ++log.failed;
        log.end_ns = now_ns();
      }
      running.fetch_sub(1);
    });
  }
  QueryLoad ql;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (running.load() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });
  try {
    run_queries(port, [&](std::size_t i) { return active[i % conns].load(); },
                done, ql);
  } catch (const std::exception& e) {
    std::printf("replay query connection failed: %s\n", e.what());
    ++ql.failed;
  }
  for (std::thread& t : threads) t.join();
  watcher.join();

  std::vector<double> commit_ms;
  std::size_t events = 0;
  std::int64_t end = start;
  std::vector<const Upload*> uploads;
  for (const ConnLog& log : logs) {
    commit_ms.insert(commit_ms.end(), log.commit_ms.begin(),
                     log.commit_ms.end());
    events += log.events_acked;
    end = std::max(end, log.end_ns);
    rep.attempted += log.attempted;
    rep.failed += log.failed;
    for (const Upload& u : log.uploads) uploads.push_back(&u);
  }
  rep.attempted += ql.attempted;
  rep.failed += ql.failed;
  const double secs = static_cast<double>(end - start) / 1e9;
  std::printf("replay_b16: %zu connections, %zu sessions, %zu periods, %zu "
              "events durable in %.3f s\n",
              conns, uploads.size(), commit_ms.size(), events, secs);
  const ProcStatus ps = dep.primary->status();

  // Every session's served model against an offline replay of what it got.
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> verifiers;
  for (std::size_t v = 0; v < nproc(); ++v) {
    verifiers.emplace_back([&] {
      try {
        ServeClient q;
        q.connect("127.0.0.1", port);
        for (std::size_t i = next.fetch_add(1); i < uploads.size();
             i = next.fetch_add(1)) {
          const Upload& u = *uploads[i];
          const std::string diff = compare_snapshot(
              q.query(u.sid, /*drain=*/true),
              offline_replay(u.input, u.sent, kReplayBound), u.input.names);
          if (!diff.empty()) {
            const std::lock_guard<std::mutex> lock(mu);
            rep.failed += u.sent;
            rep.mismatch("replay session " + std::to_string(u.sid) + ": " +
                         diff);
          }
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        rep.mismatch(std::string("replay verification failed: ") + e.what());
      }
    });
  }
  for (std::thread& t : verifiers) t.join();
  std::printf("replay_b16: %zu sessions checked against offline replay\n",
              uploads.size());

  const Summary commit = summarize(commit_ms, kReplayTailPct);
  const Summary query = summarize(ql.query_ms, kReplayTailPct);
  rep.timing("commit (period sent -> durable ack)", commit, "ms");
  rep.timing("query (wire, uploads alongside)", query, "ms");
  rep.metric("setup_s", median_of(setup_s), "s");
  rep.metric("events_per_s", static_cast<double>(events) / secs, "events/s");
  rep.metric("commit_ms_p50", commit.p50, "ms");
  rep.metric("ok_frac", ok_frac(rep), "ratio");
  rep.metric("peak_rss_mb", ps.hwm_mb, "MB");
}

}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: bbmg_ledger --workload gm_batch_b64|replay_b16 "
                 "--seed <n> --seconds <s> --trace 0|1 --work <dir>\n"
                 "       bbmg_ledger --workload live_b1_durable_replicated "
                 "--seed <n> --seconds <s> --trace 1 --work <dir>\n");
    return 1;
  };
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work") {
      opt.work = val;
    } else {
      return usage();
    }
  }
  const bool known =
      opt.workload == "gm_batch_b64" || opt.workload == "replay_b16" ||
      (opt.workload == "live_b1_durable_replicated" && opt.trace);
  if (!known || opt.work.empty() || opt.seconds <= 0.0) return usage();
  bbmg::net::ignore_sigpipe();
  bbmg::obs::Logger::instance().set_min_level(bbmg::obs::LogLevel::Warn);
  std::filesystem::create_directories(opt.work);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_record(opt.work);
  std::printf("workload %s, seed %llu, %g s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  Report rep;
  try {
    if (opt.trace) {
      run_ladder(opt, rep);
    } else if (opt.workload == "gm_batch_b64") {
      run_gm(opt, rep);
    } else {
      run_replay(opt, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbmg_ledger: error: %s\n", e.what());
    return 1;
  }
  rep.print_json();
  return rep.correct ? 0 : 3;
}
