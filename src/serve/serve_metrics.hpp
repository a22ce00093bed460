// Process-wide serving-daemon metrics (DESIGN.md "Observability"): session
// and connection totals, ingest accounting (submits / overflows / periods
// applied), the two end-to-end latency histograms (enqueue->apply and
// query), and one queue-depth gauge per worker shard.  Resolved once
// behind a function-local static like core/learner_metrics.hpp; the
// per-worker gauges are registered lazily because the worker count is a
// runtime configuration.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"

namespace bbmg {

struct ServeMetrics {
  /// Sessions ever opened across all managers in the process.
  obs::Counter& sessions_opened;
  /// Client connections accepted by the server.
  obs::Counter& connections;
  /// Client connections currently open (accepted and not yet ended).
  obs::Gauge& open_connections;
  /// Connections closed by the server's idle policy (--idle-timeout).
  obs::Counter& connections_idle_closed;
  /// accept() failures the listener survived (EMFILE, ENFILE, ENOBUFS,
  /// ENOMEM, ECONNABORTED, ...): each is retried after a short back-off.
  obs::Counter& accept_errors;
  /// Periods handed to submit() (accepted or not).
  obs::Counter& submits;
  /// Submissions refused because the shard queue was full (block=false).
  obs::Counter& overflows;
  /// Periods a worker finished applying to a learner.
  obs::Counter& periods_applied;
  /// Model queries answered (snapshot copies, probe checks included).
  obs::Counter& queries;
  /// Sequenced periods dropped as already-ingested duplicates (client
  /// resends after a reconnect; dropping them is the idempotence contract).
  obs::Counter& duplicate_periods;
  /// Sessions poisoned by an apply/WAL failure (the worker survives; the
  /// session refuses further periods).
  obs::Counter& session_failures;
  /// Quiescent durable sessions dropped from memory past kWarmSessionCap.
  obs::Counter& sessions_evicted;
  /// Evicted sessions rebuilt from their snapshot + WAL on next use.
  obs::Counter& sessions_rehydrated;
  /// ResilientClient request attempts that failed and were retried.
  obs::Counter& client_retries;
  /// ResilientClient reconnect cycles (connect + hello + resume).
  obs::Counter& client_reconnects;
  /// Periods re-sent from the client's unacked buffer after a resume.
  obs::Counter& resent_periods;
  /// ResilientClient logical requests completed (any op: open, send,
  /// resume, query, ...).  With client_request_rtt_us this is the
  /// client-observed half of the latency SLO picture.
  obs::Counter& client_requests;
  /// ResilientClient request attempts that raised a transport/server error
  /// (the error-ratio SLO numerator; retries count each failed attempt).
  obs::Counter& client_request_failures;
  /// Wall time from queue push to the learner having applied the period.
  obs::Histogram& enqueue_apply_latency_us;
  /// Wall time to answer one query (snapshot copy + optional probe check).
  obs::Histogram& query_latency_us;
  /// Client-observed wall time of one successful logical request,
  /// including the connect/resume/resend work a reconnect needed first.
  obs::Histogram& client_request_rtt_us;

  /// Depth gauge of one worker's shard queue:
  /// bbmg_serve_queue_depth{worker="N"}.  Registration is idempotent, so
  /// managers with the same worker index share a gauge; callers cache the
  /// reference (SessionManager resolves its gauges at construction).
  static obs::Gauge& queue_depth(std::size_t worker) {
    return obs::MetricsRegistry::instance().gauge(obs::labeled_name(
        "bbmg_serve_queue_depth", "worker", std::to_string(worker)));
  }

  static ServeMetrics& get() {
    static ServeMetrics m = make();
    return m;
  }

 private:
  static ServeMetrics make() {
    auto& r = obs::MetricsRegistry::instance();
    return ServeMetrics{
        r.counter("bbmg_serve_sessions_opened_total"),
        r.counter("bbmg_serve_connections_total"),
        r.gauge("bbmg_serve_open_connections"),
        r.counter("bbmg_serve_connections_idle_closed_total"),
        r.counter("bbmg_serve_accept_errors_total"),
        r.counter("bbmg_serve_submits_total"),
        r.counter("bbmg_serve_overflows_total"),
        r.counter("bbmg_serve_periods_applied_total"),
        r.counter("bbmg_serve_queries_total"),
        r.counter("bbmg_serve_duplicate_periods_total"),
        r.counter("bbmg_serve_session_failures_total"),
        r.counter("bbmg_serve_sessions_evicted_total"),
        r.counter("bbmg_serve_sessions_rehydrated_total"),
        r.counter("bbmg_serve_client_retries_total"),
        r.counter("bbmg_serve_client_reconnects_total"),
        r.counter("bbmg_serve_resent_periods_total"),
        r.counter("bbmg_client_requests_total"),
        r.counter("bbmg_client_request_errors_total"),
        r.histogram("bbmg_serve_enqueue_apply_latency_us",
                    obs::default_latency_buckets_us()),
        r.histogram("bbmg_serve_query_latency_us",
                    obs::default_latency_buckets_us()),
        r.histogram("bbmg_client_request_rtt_us",
                    obs::default_latency_buckets_us()),
    };
  }
};

}  // namespace bbmg
