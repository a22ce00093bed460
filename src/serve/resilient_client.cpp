#include "serve/resilient_client.hpp"

#include <ctime>
#include <type_traits>

#include "common/error.hpp"
#include "serve/serve_metrics.hpp"

namespace bbmg {

namespace {

void sleep_ms(std::uint64_t ms) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  (void)::nanosleep(&ts, nullptr);
}

}  // namespace

ResilientClient::ResilientClient(RetryConfig config)
    : config_(config), rng_(config.seed) {
  client_.set_request_timeout_ms(config_.request_timeout_ms);
}

void ResilientClient::connect(const std::string& host, std::uint16_t port) {
  begin_op();
  host_ = host;
  port_ = port;
  with_retry([&] { ensure_connected(); });
}

void ResilientClient::set_endpoint(const std::string& host,
                                   std::uint16_t port) {
  host_ = host;
  port_ = port;
  client_.disconnect();
}

void ResilientClient::backoff(std::size_t attempt) {
  std::uint64_t delay = config_.base_backoff_ms;
  for (std::size_t i = 0; i < attempt && delay < config_.max_backoff_ms; ++i) {
    delay *= 2;
  }
  if (delay > config_.max_backoff_ms) delay = config_.max_backoff_ms;
  if (config_.jitter > 0.0 && delay > 0) {
    const double spread = (rng_.next_double() * 2.0 - 1.0) * config_.jitter;
    const double jittered = static_cast<double>(delay) * (1.0 + spread);
    delay = jittered < 1.0 ? 1 : static_cast<std::uint64_t>(jittered);
  }
  if (delay > 0) sleep_ms(delay);
}

std::uint64_t ResilientClient::now_ms() const {
  timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

void ResilientClient::begin_op() {
  op_start_ms_ = config_.retry_budget_ms != 0 ? now_ms() : 0;
  op_failures_ = 0;
}

template <typename Fn>
auto ResilientClient::with_retry(Fn&& fn) -> decltype(fn()) {
  ServeMetrics& metrics = ServeMetrics::get();
  for (std::size_t attempt = 0;; ++attempt) {
    // Client-observed RTT of this attempt, reconnect/resume/resend
    // included: this is the latency a caller actually experiences, and the
    // histogram the monitor's client-rtt SLO burns against.
    const std::uint64_t attempt_start_ns = obs::now_ns();
    try {
      ensure_connected();
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        metrics.client_requests.inc();
        metrics.client_request_rtt_us.observe(
            (obs::now_ns() - attempt_start_ns) / 1000);
        return;
      } else {
        auto result = fn();
        metrics.client_requests.inc();
        metrics.client_request_rtt_us.observe(
            (obs::now_ns() - attempt_start_ns) / 1000);
        return result;
      }
    } catch (const Redirected&) {
      // A redirect is an answer about key ownership, not a transport
      // failure; retrying the same shard would loop forever.
      throw;
    } catch (const FencedError&) {
      // This node rejected our epoch as deposed: retrying the same
      // endpoint would only be fenced again.  Propagate so the cluster
      // layer can refetch the map — but drop the connection first, since
      // earlier fire-and-forget EndPeriods may have queued more fenced
      // ErrorReplies that would desynchronize the reply stream.
      client_.disconnect();
      throw;
    } catch (const std::exception& e) {
      // A dead connection poisons any reply in flight; drop it so the next
      // attempt reconnects, resumes, and resends before retrying fn.
      client_.disconnect();
      metrics.client_request_failures.inc();
      ++op_failures_;
      const std::uint64_t elapsed =
          op_start_ms_ != 0 ? now_ms() - op_start_ms_ : 0;
      // When a time budget is configured it alone decides when to give up:
      // connection-refused failures during a server's cold start are nearly
      // instant, so counting them against max_retries would burn the whole
      // allowance in milliseconds and defeat the budget's purpose.
      const bool has_budget = config_.retry_budget_ms != 0;
      const bool exhausted = has_budget
                                 ? elapsed >= config_.retry_budget_ms
                                 : attempt >= config_.max_retries;
      if (exhausted) {
        throw RetriesExhausted(op_failures_, elapsed, e.what());
      }
      ServeMetrics::get().client_retries.inc();
      backoff(attempt);
    }
  }
}

void ResilientClient::ensure_connected() {
  if (client_.connected()) return;
  BBMG_REQUIRE(!host_.empty(), "resilient client: no endpoint configured");
  client_.connect(host_, port_);
  ServeMetrics::get().client_reconnects.inc();
  // Learn what survived on the server (possibly a restarted process that
  // recovered from disk), then resend the tail it lost.
  for (auto& [id, state] : sessions_) {
    std::uint64_t high_water = 0;
    try {
      high_water = client_.resume(id);
    } catch (const ServerError& e) {
      // A failover target can predate the session entirely: the primary
      // died before its replicator ever mirrored this id.  When we hold
      // the open recipe, re-create the session under the same id and let
      // the ordinary resume/resend path below replay the full stream —
      // every period is still in `unacked`, so nothing is lost.
      if (e.code() != WireErrorCode::UnknownSession || !state.can_reopen) {
        throw;
      }
      client_.open_session_as(id, state.task_names, state.bound, state.policy,
                              state.snapshot_interval);
      high_water = client_.resume(id);
    }
    trim_acked(state, high_water);
    resend_unacked(id, state);
  }
}

void ResilientClient::trim_acked(SessionState& state,
                                 std::uint64_t high_water) {
  while (!state.unacked.empty() && state.unacked.front().seq <= high_water) {
    state.unacked.pop_front();
  }
}

void ResilientClient::resend_unacked(std::uint32_t session,
                                     SessionState& state) {
  ServeMetrics& metrics = ServeMetrics::get();
  for (const PendingPeriod& p : state.unacked) {
    client_.send_period(session, p.events, p.seq, p.ctx);
    metrics.resent_periods.inc();
  }
}

void ResilientClient::set_tracing(bool on) {
  tracing_ = on;
  if (on) obs::SpanRing::instance().set_enabled(true);
}

obs::TraceContext ResilientClient::begin_trace() const {
  if (!tracing_) return {};
  // The root span id is minted up front so the envelope can name it as the
  // parent before the span itself is recorded (at end_trace).
  return {obs::mint_id(), obs::mint_id()};
}

void ResilientClient::end_trace(const char* name,
                                const obs::TraceContext& ctx,
                                std::uint64_t start_ns) const {
  if (!ctx.active()) return;
  obs::SpanRing& ring = obs::SpanRing::instance();
  if (!ring.enabled()) return;
  obs::SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.duration_ns = obs::now_ns() - start_ns;
  rec.thread = obs::current_thread_index();
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;  // pre-minted root: parent stays 0
  rec.flow = static_cast<std::uint8_t>(obs::FlowDir::Out);
  ring.record(rec);
}

std::uint32_t ResilientClient::open_session(
    const std::vector<std::string>& task_names, std::uint32_t bound,
    SanitizePolicy policy, std::uint32_t snapshot_interval) {
  begin_op();
  const std::uint32_t id = with_retry([&] {
    return client_.open_session(task_names, bound, policy, snapshot_interval);
  });
  SessionState state;
  state.can_reopen = true;
  state.task_names = task_names;
  state.bound = bound;
  state.policy = policy;
  state.snapshot_interval = snapshot_interval;
  sessions_.emplace(id, std::move(state));
  return id;
}

void ResilientClient::attach_session(std::uint32_t session) {
  begin_op();
  const std::uint64_t high_water =
      with_retry([&] { return client_.resume(session); });
  SessionState state;
  state.next_seq = high_water + 1;
  sessions_[session] = std::move(state);
}

void ResilientClient::send_period(std::uint32_t session,
                                  std::vector<Event> events) {
  auto it = sessions_.find(session);
  BBMG_REQUIRE(it != sessions_.end(),
               "resilient client: unknown session (open or attach first)");
  SessionState& state = it->second;
  begin_op();
  const std::uint64_t seq = state.next_seq++;
  const obs::TraceContext ctx = begin_trace();
  const std::uint64_t start_ns = ctx.active() ? obs::now_ns() : 0;
  state.unacked.push_back(PendingPeriod{seq, std::move(events), ctx});
  // A reconnect inside with_retry resends the whole unacked tail and can
  // learn (via resume) that the server already holds this period durably,
  // in which case trim_acked pops it from `unacked` — so no reference into
  // the deque may be held across with_retry.  Re-look the period up by seq
  // on every attempt; if it is gone it is durable and there is nothing
  // left to send, otherwise the explicit send lands (at worst as a
  // duplicate the server drops) — either way delivered exactly once.
  with_retry([&] {
    for (const PendingPeriod& p : state.unacked) {
      if (p.seq > seq) break;  // unacked is seq-ordered
      if (p.seq == seq) {
        client_.send_period(session, p.events, seq, p.ctx);
        return;
      }
    }
  });
  end_trace("client.send_period", ctx, start_ns);
  if (++state.since_ack >= config_.ack_interval) {
    state.since_ack = 0;
    const std::uint64_t high_water =
        with_retry([&] { return client_.resume(session); });
    trim_acked(state, high_water);
  }
}

std::uint64_t ResilientClient::flush(std::uint32_t session) {
  auto it = sessions_.find(session);
  BBMG_REQUIRE(it != sessions_.end(), "resilient client: unknown session");
  SessionState& state = it->second;
  begin_op();
  for (std::size_t round = 0;; ++round) {
    const std::uint64_t high_water =
        with_retry([&] { return client_.resume(session); });
    trim_acked(state, high_water);
    state.since_ack = 0;
    if (state.unacked.empty()) return high_water;
    // Resume drains + fsyncs, so anything still unacked was lost in
    // flight on a connection that died; push it again and re-ask.
    BBMG_REQUIRE(round < config_.max_retries,
                 "resilient client: flush could not land all periods");
    with_retry([&] { resend_unacked(session, state); });
  }
}

WireSnapshot ResilientClient::query(std::uint32_t session, bool drain,
                                    const std::vector<Event>* probe) {
  begin_op();
  const obs::TraceContext ctx = begin_trace();
  const std::uint64_t start_ns = ctx.active() ? obs::now_ns() : 0;
  WireSnapshot snap =
      with_retry([&] { return client_.query(session, drain, probe, ctx); });
  end_trace("client.query", ctx, start_ns);
  return snap;
}

TraceDumpResponseMsg ResilientClient::fetch_trace_dump(bool drain,
                                                       bool flight) {
  begin_op();
  return with_retry([&] { return client_.fetch_trace_dump(drain, flight); });
}

std::uint64_t ResilientClient::open_session_as(
    std::uint32_t session, const std::vector<std::string>& task_names,
    std::uint32_t bound, SanitizePolicy policy,
    std::uint32_t snapshot_interval) {
  begin_op();
  // Drop any stale local state first: if this is a re-setup after a stall,
  // ensure_connected must not resume/resend from the old buffer.
  sessions_.erase(session);
  const std::uint64_t high_water = with_retry([&] {
    client_.open_session_as(session, task_names, bound, policy,
                            snapshot_interval);
    return client_.resume(session);
  });
  SessionState state;
  state.next_seq = high_water + 1;
  state.can_reopen = true;
  state.task_names = task_names;
  state.bound = bound;
  state.policy = policy;
  state.snapshot_interval = snapshot_interval;
  sessions_[session] = std::move(state);
  return high_water;
}

std::uint32_t ResilientClient::open_cluster_session(
    const std::string& key, const std::vector<std::string>& task_names,
    std::uint32_t bound, SanitizePolicy policy,
    std::uint32_t snapshot_interval) {
  begin_op();
  const std::uint32_t id = with_retry([&] {
    return client_.open_cluster_session(key, task_names, bound, policy,
                                        snapshot_interval);
  });
  SessionState state;
  state.can_reopen = true;
  state.task_names = task_names;
  state.bound = bound;
  state.policy = policy;
  state.snapshot_interval = snapshot_interval;
  sessions_.emplace(id, std::move(state));
  return id;
}

ClusterMapResponseMsg ResilientClient::fetch_cluster_map() {
  begin_op();
  return with_retry([&] { return client_.fetch_cluster_map(); });
}

MapUpdateAckMsg ResilientClient::push_map_update(
    const ClusterMapResponseMsg& map) {
  begin_op();
  return with_retry([&] { return client_.push_map_update(map); });
}

std::size_t ResilientClient::unacked(std::uint32_t session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.unacked.size();
}

}  // namespace bbmg
