// The traced run (--trace 1): the workload's inputs replayed up a nested
// ladder of configurations, each rung adding one layer of the served path.
//
//   R1 core     OnlineLearner::observe_period
//   R2 robust   RobustOnlineLearner::observe_raw_period (+ full_snapshot,
//               the per-period publish)
//   R3 serve    in-process SessionManager: submit + resume_high_water
//   R4 durable  R3 with a data directory (WAL append + fsync per period)
//   R5 net      R4 behind an in-process Server, driven over loopback by a
//               ServeClient: send_period + resume
//   R6 cluster  real bbmg_served primary + follower daemons
//
// Every rung replays the same periods in the same order, and R3..R6 run
// closed loop, one period at a time, so each period's latency at rung k
// minus the same period's latency at rung k-1 is the self time of the
// layer rung k adds; the reported self time is the median of these paired
// differences, so a period's own learning cost cancels.  The benchmark
// times only public calls from its own code; the daemon's existing
// causal-trace stage spans (fetched with fetch_trace_dump from a --trace
// daemon) cross-check the attribution.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>

#include "core/online_learner.hpp"
#include "core/vspace_stats.hpp"
#include "ledger.hpp"
#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace ledger {

using namespace bbmg;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kMaxLearnPeriods = 20000;  // R1/R2 cap
constexpr std::size_t kMaxServedPeriods = 1000;  // R3..R6 cap
constexpr double kBurstRate = 500.0;             // R6 open-loop periods/s
constexpr int kChurnConnections = 20;            // fresh scrape connections

struct Ladder {
  std::vector<SessionInput> sessions;
  std::size_t bound{16};
  /// R1/R2 learn at least this many periods, whatever the time budget.
  std::size_t min_learn{40};
};

Ladder ladder_input(const Options& opt) {
  Ladder l;
  if (opt.workload == "gm_batch_b64") {
    for (std::size_t i = 0; i < 4; ++i) {
      l.sessions.push_back(gm_input(opt.seed, i));
    }
    l.bound = kGmBound;
  } else if (opt.workload == "replay_b16") {
    for (std::size_t k = 0; k < 10; ++k) {
      l.sessions.push_back(replay_input(opt.seed, 0, k));
    }
    l.bound = kReplayBound;
  } else {
    l.sessions.push_back(live_input(opt.seed));
    l.bound = kLiveBound;
    // The whole history, so robust.publish_bytes is read at its end.
    l.min_learn = kLivePeriods;
  }
  return l;
}

/// The first `n` periods of the ladder input, session by session:
/// fn(session index, period index).
template <typename Fn>
void for_periods(const Ladder& l, std::size_t n, Fn&& fn) {
  std::size_t done = 0;
  for (std::size_t s = 0; s < l.sessions.size() && done < n; ++s) {
    for (std::size_t p = 0; p < l.sessions[s].events.size() && done < n;
         ++p, ++done) {
      fn(s, p);
    }
  }
}

/// Sessions touched by the first `n` periods, and how many periods each.
std::vector<std::size_t> periods_per_session(const Ladder& l, std::size_t n) {
  std::vector<std::size_t> out;
  for_periods(l, n, [&](std::size_t s, std::size_t) {
    if (out.size() <= s) out.resize(s + 1, 0);
    ++out[s];
  });
  return out;
}

double p50_of_first(const std::vector<double>& v, std::size_t n) {
  return median_of(
      {v.begin(), v.begin() + static_cast<long>(std::min(n, v.size()))});
}

/// Median over periods of hi[i] - lo[i], the i-th period's latency on two
/// rungs (or two runs of one rung).
double paired_median(const std::vector<double>& hi,
                     const std::vector<double>& lo) {
  std::vector<double> d;
  for (std::size_t i = 0; i < std::min(hi.size(), lo.size()); ++i) {
    d.push_back(hi[i] - lo[i]);
  }
  return median_of(d);
}

/// num / den, with den clamped to at least 1.
double per(double num, std::size_t den) {
  return num / static_cast<double>(std::max<std::size_t>(den, 1));
}

obs::MetricsSnapshot registry() {
  return obs::MetricsRegistry::instance().snapshot();
}

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Quantile of a fixed-bucket histogram: the upper bound of the bucket
/// holding the q-th sample (the last bound for the overflow bucket).
double bucket_quantile(const std::vector<std::uint64_t>& bounds,
                       const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= std::max<std::uint64_t>(target, 1)) {
      return static_cast<double>(bounds[std::min(i, bounds.size() - 1)]);
    }
  }
  return static_cast<double>(bounds.back());
}

/// after - before of one registry histogram, as a quantile.
double histogram_delta_quantile(const obs::MetricsSnapshot& before,
                                const obs::MetricsSnapshot& after,
                                const std::string& name, double q) {
  const obs::HistogramSample* a = after.find_histogram(name);
  if (a == nullptr) return 0.0;
  std::vector<std::uint64_t> counts = a->counts;
  if (const obs::HistogramSample* b = before.find_histogram(name)) {
    for (std::size_t i = 0; i < counts.size() && i < b->counts.size(); ++i) {
      counts[i] -= b->counts[i];
    }
  }
  return bucket_quantile(a->upper_bounds, counts, q);
}

/// Stage spans as (name, duration in us).
using Spans = std::vector<std::pair<std::string, double>>;

std::vector<double> span_us(const Spans& spans, const std::string& name) {
  std::vector<double> out;
  for (const auto& [n, us] : spans) {
    if (n == name) out.push_back(us);
  }
  return out;
}

SessionConfig session_config(std::size_t bound) {
  SessionConfig cfg;
  cfg.robust.online.bound = bound;
  return cfg;
}

}  // namespace

void run_ladder(const Options& opt, Report& rep) {
  const Ladder l = ladder_input(opt);
  const double budget_s = opt.seconds / 10.0;
  const std::string root = opt.work + "/ladder";
  fs::remove_all(root);
  fs::create_directories(root);
  auto since_s = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e9;
  };

  // -- R1 core and R2 robust + publish, fed each period in turn so that
  // their paired difference compares the same moment of the host.  R1 also
  // decides N, the number of periods every rung replays: what it learns in
  // the time budget, but at least l.min_learn.
  std::vector<double> r1_us;
  std::vector<double> r2_us;
  std::vector<double> publish_us;
  double publish_bytes = 0.0;
  std::uint64_t created = 0;
  std::uint64_t messages = 0;
  std::uint64_t merges = 0;
  std::uint64_t frontier_sum = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::size_t events = 0;
  VersionSpaceStats vspace;
  {
    RobustConfig cfg;
    cfg.online.bound = l.bound;
    std::unique_ptr<RobustOnlineLearner> robust;
    const std::int64_t t_start = now_ns();
    bool stop = false;
    for (std::size_t s = 0; s < l.sessions.size() && !stop; ++s) {
      const SessionInput& in = l.sessions[s];
      OnlineLearner learner(in.names.size(), OnlineConfig{l.bound});
      learner.set_vspace_stats(&vspace);
      robust = std::make_unique<RobustOnlineLearner>(in.names, cfg);
      for (std::size_t p = 0; p < in.periods.size(); ++p) {
        const obs::AllocCounters a0 = obs::thread_alloc_counters();
        const std::int64_t t0 = now_ns();
        learner.observe_period(in.periods[p]);
        const std::int64_t t1 = now_ns();
        const obs::AllocCounters da =
            obs::alloc_delta(a0, obs::thread_alloc_counters());
        const std::int64_t t2 = now_ns();
        (void)robust->observe_raw_period(in.events[p]);
        const std::int64_t t3 = now_ns();
        const RobustSnapshot snap = robust->full_snapshot();
        const std::int64_t t4 = now_ns();
        r1_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        r2_us.push_back(static_cast<double>(t3 - t2) / 1e3);
        publish_us.push_back(static_cast<double>(t4 - t3) / 1e3);
        allocs += da.count;
        alloc_bytes += da.bytes;
        frontier_sum += learner.hypotheses().size();
        events += in.events[p].size();
        if ((since_s(t_start) >= budget_s &&
             r1_us.size() >= l.min_learn) ||
            r1_us.size() >= kMaxLearnPeriods) {
          stop = true;
          break;
        }
      }
      created += learner.stats().hypotheses_created;
      messages += learner.stats().messages_processed;
      merges += learner.stats().merges;
    }
    // What one publish copies at the end of the longest history replayed:
    // the frontier's matrices plus the per-period stats vector.
    const OnlineLearner& inner = robust->learner();
    publish_bytes =
        static_cast<double>(inner.approx_frontier_bytes()) +
        static_cast<double>(inner.stats().frontier_after_period.size() *
                            sizeof(std::size_t)) +
        static_cast<double>(robust->defects().size() * sizeof(Defect));
  }
  const std::size_t n_learn = r1_us.size();
  const std::size_t n_served = std::min(n_learn, kMaxServedPeriods);
  const std::vector<std::size_t> served_split =
      periods_per_session(l, n_served);
  std::printf("ladder: %zu periods through R1/R2, %zu through R3..R6 (%zu "
              "sessions, bound %zu)\n",
              n_learn, n_served, served_split.size(), l.bound);
  const VspaceSnapshot vs = vspace.snapshot();

  // -- R3 serve: in-process SessionManager.
  std::vector<double> r3_us;
  std::vector<double> submit_us;
  std::vector<double> query_us;
  double apply_lag_p50 = 0.0;
  double apply_lag_p99 = 0.0;
  {
    const obs::MetricsSnapshot before = registry();
    SessionManager mgr(ManagerConfig{nproc(), 256, {}});
    std::vector<SessionId> ids;
    for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
      if (ids.size() <= s) {
        ids.push_back(mgr.open_session(l.sessions[s].names,
                                       session_config(l.bound)));
      }
      const std::int64_t t0 = now_ns();
      const SubmitStatus st = mgr.submit(ids[s], l.sessions[s].events[p]);
      const std::int64_t t1 = now_ns();
      (void)mgr.resume_high_water(ids[s]);
      const std::int64_t t2 = now_ns();
      (void)mgr.query(ids[s]);
      const std::int64_t t3 = now_ns();
      if (st != SubmitStatus::Accepted) ++rep.failed;
      ++rep.attempted;
      submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      r3_us.push_back(static_cast<double>(t2 - t0) / 1e3);
      query_us.push_back(static_cast<double>(t3 - t2) / 1e3);
    });
    mgr.stop();
    const obs::MetricsSnapshot after = registry();
    apply_lag_p50 = histogram_delta_quantile(
        before, after, "bbmg_serve_enqueue_apply_latency_us", 0.5);
    apply_lag_p99 = histogram_delta_quantile(
        before, after, "bbmg_serve_enqueue_apply_latency_us", 0.99);
  }

  // Worker scaling: nproc copies of the first session, W = 1 vs W = nproc.
  double scaling = 0.0;
  {
    const SessionInput& in = l.sessions[0];
    const double per_period_s = std::max(mean_of(r2_us), 1.0) / 1e6;
    const std::size_t m = std::clamp<std::size_t>(
        static_cast<std::size_t>(budget_s / 4.0 / per_period_s), 1,
        in.events.size());
    double rate[2] = {0.0, 0.0};
    const std::size_t workers[2] = {1, nproc()};
    for (int w = 0; w < 2; ++w) {
      SessionManager mgr(ManagerConfig{workers[w], 256, {}});
      std::vector<SessionId> ids;
      for (std::size_t k = 0; k < nproc(); ++k) {
        ids.push_back(mgr.open_session(in.names, session_config(l.bound)));
      }
      const std::int64_t t0 = now_ns();
      for (std::size_t p = 0; p < m; ++p) {
        for (const SessionId id : ids) (void)mgr.submit(id, in.events[p]);
      }
      for (const SessionId id : ids) mgr.drain(id);
      rate[w] = static_cast<double>(m * ids.size()) / since_s(t0);
    }
    scaling = rate[1] / rate[0];
    std::printf("ladder: worker scaling %.3f (%zu sessions x %zu periods; "
                "W=1 %.1f, W=%zu %.1f periods/s)\n",
                scaling, nproc(), m, rate[0], nproc(), rate[1]);
  }

  // -- R4 durable: R3 plus a data directory, every period fsynced.
  std::vector<double> r4_us;
  std::vector<double> wal_us;
  std::vector<double> fsync_us;
  double snapshot_ms = 0.0;
  double snapshot_bytes = 0.0;
  double recover_ms = 0.0;
  {
    ManagerConfig cfg{nproc(), 256, {}};
    cfg.durable.dir = root + "/durable";
    cfg.durable.fsync_every = 1;
    auto& ring = obs::SpanRing::instance();
    ring.set_capacity(1u << 18);
    ring.set_enabled(true);
    (void)ring.drain();
    const obs::MetricsSnapshot before = registry();
    {
      SessionManager mgr(cfg);
      std::vector<SessionId> ids;
      std::vector<std::uint64_t> seq;
      for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
        if (ids.size() <= s) {
          ids.push_back(mgr.open_session(l.sessions[s].names,
                                         session_config(l.bound)));
          seq.push_back(0);
        }
        const obs::TraceContext ctx{obs::mint_id(), obs::mint_id()};
        const std::int64_t t0 = now_ns();
        const SubmitStatus st =
            mgr.submit(ids[s], l.sessions[s].events[p], true, ++seq[s], ctx);
        (void)mgr.resume_high_water(ids[s]);
        r4_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        if (st != SubmitStatus::Accepted) ++rep.failed;
        ++rep.attempted;
      });
      mgr.stop();
      Spans spans;
      for (const obs::SpanRecord& r : ring.drain()) {
        spans.emplace_back(r.name, static_cast<double>(r.duration_ns) / 1e3);
      }
      ring.set_enabled(false);
      wal_us = span_us(spans, "server.wal_append");
      fsync_us = span_us(spans, "server.fsync");
      const std::int64_t t0 = now_ns();
      mgr.checkpoint_all();
      snapshot_ms = static_cast<double>(now_ns() - t0) / 1e6 /
                    static_cast<double>(ids.size());
    }
    const obs::MetricsSnapshot after = registry();
    auto delta = [&](const char* counter) {
      return after.counter_value(counter) - before.counter_value(counter);
    };
    snapshot_bytes =
        per(static_cast<double>(delta("bbmg_durable_snapshot_bytes_total")),
            delta("bbmg_durable_snapshots_written_total"));
    const std::int64_t t0 = now_ns();
    SessionManager recovered(cfg);
    recover_ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (recovered.recovery().sessions != served_split.size()) {
      rep.mismatch("durable rung: recovered " +
                   std::to_string(recovered.recovery().sessions) +
                   " sessions, expected " +
                   std::to_string(served_split.size()));
    }
  }

  // -- R5 net: in-process Server over loopback, plus the codec alone.
  std::vector<double> r5_us;
  std::vector<double> rtt_us;
  std::vector<double> connect_ms;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double wire_bytes = 0.0;
  {
    ServerConfig sc;
    sc.manager = ManagerConfig{nproc(), 256, {}};
    sc.manager.durable.dir = root + "/net";
    sc.manager.durable.fsync_every = 1;
    Server srv(sc);
    srv.start();
    {
      ServeClient c;
      c.connect("127.0.0.1", srv.port());
      std::vector<std::uint32_t> sids;
      std::vector<std::uint64_t> seq;
      for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
        if (sids.size() <= s) {
          sids.push_back(c.open_session(l.sessions[s].names,
                                        static_cast<std::uint32_t>(l.bound)));
          seq.push_back(0);
        }
        const std::int64_t t0 = now_ns();
        c.send_period(sids[s], l.sessions[s].events[p], ++seq[s]);
        if (c.resume(sids[s]) != seq[s]) ++rep.failed;
        const std::int64_t t1 = now_ns();
        (void)c.resume(sids[s]);
        const std::int64_t t2 = now_ns();
        ++rep.attempted;
        r5_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        rtt_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      });
      for (int i = 0; i < kChurnConnections; ++i) {
        const std::int64_t t0 = now_ns();
        ServeClient x;
        x.connect("127.0.0.1", srv.port());
        connect_ms.push_back(ms_since(t0));
      }
    }
    srv.stop();
    std::vector<std::uint8_t> bytes;
    std::uint64_t seq = 0;
    for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
      bytes.clear();
      const std::int64_t t0 = now_ns();
      append_frame(bytes, EventsMsg{static_cast<std::uint32_t>(s),
                                    l.sessions[s].events[p]}
                              .to_frame());
      append_frame(bytes, EndPeriodMsg{static_cast<std::uint32_t>(s), ++seq, 0}
                              .to_frame());
      const std::int64_t t1 = now_ns();
      FrameDecoder decoder;
      decoder.feed(bytes.data(), bytes.size());
      std::size_t decoded = 0;
      while (const std::optional<Frame> f = decoder.next()) {
        if (f->type == FrameType::Events) {
          decoded += EventsMsg::decode(*f).events.size();
        } else {
          (void)EndPeriodMsg::decode(*f);
        }
      }
      const std::int64_t t2 = now_ns();
      if (decoded != l.sessions[s].events[p].size()) {
        rep.mismatch("protocol: decoded event count differs from encoded");
      }
      encode_us += static_cast<double>(t1 - t0) / 1e3;
      decode_us += static_cast<double>(t2 - t1) / 1e3;
      wire_bytes += static_cast<double>(bytes.size());
    });
  }

  // -- R6 cluster: real daemons, primary + follower, untraced and traced
  // side by side; each period goes to both, in alternating order, so the
  // tracing overhead compares the same moment of the host.
  std::vector<double> r6_us;
  std::vector<double> r6_traced_us;
  std::vector<double> lag_periods;
  double gen_late_ms_p99 = 0.0;
  Spans server_spans;
  ProcStatus end_status;
  {
    Deployment dep = deploy(root + "/cluster", 1, true, false);
    Deployment traced_dep = deploy(root + "/cluster-traced", 1, true, true);
    struct Rung {
      ServeClient c;
      std::vector<std::uint32_t> sids;
      std::vector<double>* out;
      bool traced;
    };
    Rung rungs[2] = {{{}, {}, &r6_us, false}, {{}, {}, &r6_traced_us, true}};
    rungs[0].c.connect("127.0.0.1", dep.primary->port());
    rungs[1].c.connect("127.0.0.1", traced_dep.primary->port());
    for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
      for (std::size_t k = 0; k < 2; ++k) {
        Rung& r = rungs[(k + p) % 2];
        if (r.sids.size() <= s) {
          r.sids.push_back(r.c.open_session(
              l.sessions[s].names, static_cast<std::uint32_t>(l.bound)));
        }
        obs::TraceContext ctx;
        if (r.traced) ctx = {obs::mint_id(), obs::mint_id()};
        const std::int64_t t0 = now_ns();
        r.c.send_period(r.sids[s], l.sessions[s].events[p], p + 1, ctx);
        if (r.c.resume(r.sids[s]) != p + 1) ++rep.failed;
        r.out->push_back(static_cast<double>(now_ns() - t0) / 1e3);
        ++rep.attempted;
      }
    });
    for (std::size_t s = 0; s < rungs[0].sids.size(); ++s) {
      const std::string diff = compare_snapshot(
          rungs[0].c.query(rungs[0].sids[s], true),
          offline_replay(l.sessions[s], served_split[s], l.bound),
          l.sessions[s].names);
      if (!diff.empty()) {
        rep.mismatch("ladder session " + std::to_string(s) + ": " + diff);
      }
    }

    // Open-loop burst on a fresh session: replication lag seen on the
    // follower, and how late the generator ran.
    const SessionInput& in = l.sessions[0];
    const double rate =
        std::min(kBurstRate, 0.5e6 / std::max(mean_of(r2_us), 1.0));
    const double secs =
        std::min(budget_s, static_cast<double>(in.events.size()) / rate);
    ServeClient opener;
    opener.connect("127.0.0.1", dep.primary->port());
    OpenLoopPlan plan;
    plan.port = dep.primary->port();
    plan.sid =
        opener.open_session(in.names, static_cast<std::uint32_t>(l.bound));
    plan.input = &in;
    plan.rate = rate;
    plan.seconds = secs;
    const std::uint16_t fport = dep.follower->port();
    const OpenLoopResult res = run_open_loop(
        plan, [&](const std::atomic<bool>& done,
                  const std::atomic<std::uint64_t>& sent) {
          try {
            ServeClient f;
            f.connect("127.0.0.1", fport);
            while (!done.load()) {
              const std::uint64_t s = sent.load();
              // Until the primary mirrors the session, the follower does not
              // know it: everything sent so far is lag.
              std::uint64_t hw = 0;
              try {
                hw = f.resume(plan.sid);
              } catch (const ServerError& e) {
                if (e.code() != WireErrorCode::UnknownSession) throw;
              }
              lag_periods.push_back(s > hw ? static_cast<double>(s - hw) : 0.0);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          } catch (const std::exception& e) {
            std::printf("ladder: follower lag probe failed: %s\n", e.what());
          }
        });
    // No latency limit here: a miss is a failed or uncommitted period.
    const StepReport sr = account_step(
        res.slots, rate, std::numeric_limits<double>::infinity(), 99.0,
        res.end_ns, res.horizon);
    std::printf("ladder: open-loop burst %.0f periods/s: %zu due, %zu failed "
                "or uncommitted; generator late p50 %.3f ms, p99 %.3f ms "
                "(n=%zu)\n",
                rate, sr.attempted, sr.missed, sr.late_ms.p50, sr.late_ms.tail,
                sr.late_ms.n);
    rep.attempted += sr.attempted;
    rep.failed += sr.missed;
    gen_late_ms_p99 = sr.late_ms.tail;

    ServeClient& c = rungs[1].c;
    const TraceDumpResponseMsg dump = c.fetch_trace_dump(/*drain=*/true);
    for (const WireSpan& w : dump.spans) {
      server_spans.emplace_back(w.name,
                                static_cast<double>(w.duration_ns) / 1e3);
    }
    // The fresh-connection scrapes a monitor makes, then the daemon's
    // resource use: what a lifetime of connections leaves behind.
    for (int i = 0; i < kChurnConnections; ++i) {
      ServeClient s;
      s.connect("127.0.0.1", traced_dep.primary->port());
      (void)s.fetch_metrics();
    }
    end_status = traced_dep.primary->status();
  }

  // -- per-period self time by paired rung difference, first n_served.
  const std::vector<std::pair<std::string, double>> ladder_self = {
      {"learn", p50_of_first(r2_us, n_served)},
      {"serve", paired_median(r3_us, r2_us)},
      {"durable", paired_median(r4_us, r3_us)},
      {"net", paired_median(r5_us, r4_us)},
      {"cluster", paired_median(r6_us, r5_us)}};
  auto spans_p50 = [&](const char* name) {
    return median_of(span_us(server_spans, name));
  };
  // Stage spans the daemon records, folded onto the same layers (the
  // cluster wait is not a server stage span; its ladder share is compared
  // separately).
  const std::vector<std::pair<std::string, double>> span_self = {
      {"learn", spans_p50("server.apply")},
      {"serve", spans_p50("server.queue_wait") + spans_p50("server.ack")},
      {"durable", spans_p50("server.wal_append") + spans_p50("server.fsync")},
      {"net", spans_p50("server.decode")}};
  auto argmax = [](const std::vector<std::pair<std::string, double>>& v,
                   std::size_t limit) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < std::min(limit, v.size()); ++i) {
      if (v[i].second > v[best].second) best = i;
    }
    return v[best].first;
  };
  std::printf("ladder self time per period (p50 paired differences, us):");
  for (const auto& [layer, us] : ladder_self) {
    std::printf(" %s %.1f", layer.c_str(), us);
  }
  std::printf("\nspan self time per period (p50, us):");
  for (const auto& [layer, us] : span_self) {
    std::printf(" %s %.1f", layer.c_str(), us);
  }
  const std::string ladder_top = argmax(ladder_self, 4);
  const std::string span_top = argmax(span_self, 4);
  std::printf("\ndominant server-side layer: ladder %s, spans %s -> %s; "
              "overall ladder dominant (incl. cluster) %s\n",
              ladder_top.c_str(), span_top.c_str(),
              ladder_top == span_top ? "agree" : "DISAGREE",
              argmax(ladder_self, 5).c_str());

  rep.metric("core.observe_us_per_period", mean_of(r1_us), "us");
  rep.metric("core.hypotheses_created_per_msg",
             per(static_cast<double>(created), messages), "ratio");
  rep.metric("core.merges_per_period",
             per(static_cast<double>(merges), n_learn), "count");
  rep.metric("core.survive_ratio",
             per(static_cast<double>(frontier_sum), created), "ratio");
  rep.metric("core.scan_len_p50",
             bucket_quantile(vs.scan.bounds, vs.scan.counts, 0.5), "count");
  rep.metric("core.allocs_per_event", per(static_cast<double>(allocs), events),
             "count");
  rep.metric("core.alloc_bytes_per_event",
             per(static_cast<double>(alloc_bytes), events), "B");
  rep.metric("robust.sanitize_us_per_period", paired_median(r2_us, r1_us),
             "us");
  rep.metric("robust.publish_us", median_of(publish_us), "us");
  rep.metric("robust.publish_bytes", publish_bytes, "B");
  const Summary submit = summarize(submit_us, 99.0);
  rep.metric("serve.submit_block_us_p99", submit.tail, "us");
  rep.metric("serve.apply_lag_us_p50", apply_lag_p50, "us");
  rep.metric("serve.apply_lag_us_p99", apply_lag_p99, "us");
  rep.metric("serve.query_us_p50", median_of(query_us), "us");
  rep.metric("serve.worker_scaling", scaling, "ratio");
  rep.metric("protocol.encode_us_per_period", per(encode_us, n_served), "us");
  rep.metric("protocol.decode_us_per_period", per(decode_us, n_served), "us");
  std::size_t served_events = 0;
  for_periods(l, n_served, [&](std::size_t s, std::size_t p) {
    served_events += l.sessions[s].events[p].size();
  });
  rep.metric("protocol.bytes_per_event", per(wire_bytes, served_events), "B");
  const Summary rtt = summarize(rtt_us, 99.0);
  rep.metric("net.rtt_us_p50", rtt.p50, "us");
  rep.metric("net.rtt_us_p99", rtt.tail, "us");
  rep.metric("net.connect_ms_p50", median_of(connect_ms), "ms");
  rep.metric("net.daemon_fds_end", static_cast<double>(end_status.fds),
             "count");
  rep.metric("net.daemon_threads_end", static_cast<double>(end_status.threads),
             "count");
  rep.metric("net.daemon_vmsize_mb_end", end_status.vmsize_mb, "MB");
  rep.metric("durable.wal_append_us_p50", median_of(wal_us), "us");
  const Summary fsync = summarize(fsync_us, 99.0);
  rep.metric("durable.fsync_us_p50", fsync.p50, "us");
  rep.metric("durable.fsync_us_p99", fsync.tail, "us");
  rep.metric("durable.snapshot_write_ms", snapshot_ms, "ms");
  rep.metric("durable.snapshot_bytes", snapshot_bytes, "B");
  rep.metric("durable.recover_ms", recover_ms, "ms");
  rep.metric("cluster.lag_periods_p99", summarize(lag_periods, 99.0).tail,
             "count");
  rep.metric("cluster.commit_delta_ms_p50", ladder_self[4].second / 1e3,
             "ms");
  for (const char* stage :
       {"decode", "queue_wait", "apply", "wal_append", "fsync", "ack"}) {
    const Summary s =
        summarize(span_us(server_spans, std::string("server.") + stage), 99.0);
    rep.metric(std::string("span.") + stage + "_us_p50", s.p50, "us");
    rep.metric(std::string("span.") + stage + "_us_p99", s.tail, "us");
  }
  for (const auto& [layer, us] : ladder_self) {
    rep.metric("ladder." + layer + "_us_per_period", us, "us");
  }
  rep.metric("bench.gen_late_ms_p99", gen_late_ms_p99, "ms");
  rep.metric("bench.trace_overhead_pct",
             100.0 * paired_median(r6_traced_us, r6_us) / median_of(r6_us),
             "%");
}

}  // namespace ledger
