#include "serve/client.hpp"

#include "common/error.hpp"
#include "serve/net.hpp"
#include "trace/event.hpp"

namespace bbmg {

ServeClient::~ServeClient() { disconnect(); }

void ServeClient::connect(const std::string& host, std::uint16_t port) {
  BBMG_REQUIRE(fd_ < 0, "client already connected");
  fd_ = net::connect_tcp(host, port);
  if (request_timeout_ms_ != 0) {
    net::set_socket_timeout(fd_, request_timeout_ms_);
  }
  try {
    (void)HelloMsg::decode(
        call(HelloMsg{}.to_frame(FrameType::Hello), FrameType::HelloAck));
  } catch (...) {
    disconnect();
    throw;
  }
}

void ServeClient::disconnect() {
  if (fd_ >= 0) {
    net::shutdown_socket(fd_);
    net::close_socket(fd_);
    fd_ = -1;
  }
}

Frame ServeClient::call(const Frame& request, FrameType expected,
                        const obs::TraceContext& ctx) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  std::vector<std::uint8_t> bytes;
  append_ctx_frame(bytes, ctx);
  append_frame(bytes, request);
  net::write_all(fd_, bytes.data(), bytes.size());
  std::optional<Frame> frame = net::read_frame(fd_, decoder_);
  if (!frame.has_value()) {
    raise("client: server closed the connection while awaiting a reply");
  }
  if (frame->type == FrameType::ErrorReply) {
    const ErrorReplyMsg err = ErrorReplyMsg::decode(*frame);
    if (err.code == WireErrorCode::Fenced) throw FencedError(err.message);
    throw ServerError(err.code, err.message);
  }
  if (frame->type == FrameType::Redirect) {
    throw Redirected(RedirectMsg::decode(*frame));
  }
  if (frame->type != expected) {
    raise("client: unexpected reply frame type");
  }
  return std::move(*frame);
}

std::uint32_t ServeClient::open_session(
    const std::vector<std::string>& task_names, std::uint32_t bound,
    SanitizePolicy policy, std::uint32_t snapshot_interval) {
  const OpenSessionMsg msg{task_names, bound, policy, snapshot_interval};
  return SessionRefMsg::decode(call(msg.to_frame(), FrameType::SessionOpened))
      .session;
}

void ServeClient::open_session_as(std::uint32_t session,
                                  const std::vector<std::string>& task_names,
                                  std::uint32_t bound, SanitizePolicy policy,
                                  std::uint32_t snapshot_interval) {
  const OpenSessionAsMsg msg{session, task_names,        bound,
                             policy,  snapshot_interval, write_epoch_};
  const SessionRefMsg ref =
      SessionRefMsg::decode(call(msg.to_frame(), FrameType::SessionOpened));
  BBMG_REQUIRE(ref.session == session,
               "open_session_as: server opened a different session id");
}

std::uint32_t ServeClient::open_cluster_session(
    const std::string& key, const std::vector<std::string>& task_names,
    std::uint32_t bound, SanitizePolicy policy,
    std::uint32_t snapshot_interval) {
  const OpenClusterSessionMsg msg{key,    task_names,        bound,
                                  policy, snapshot_interval, write_epoch_};
  return SessionRefMsg::decode(call(msg.to_frame(), FrameType::SessionOpened))
      .session;
}

ClusterMapResponseMsg ServeClient::fetch_cluster_map() {
  return ClusterMapResponseMsg::decode(call(ClusterMapRequestMsg{}.to_frame(),
                                            FrameType::ClusterMapResponse));
}

MapUpdateAckMsg ServeClient::push_map_update(const ClusterMapResponseMsg& map) {
  return MapUpdateAckMsg::decode(
      call(MapUpdateMsg{map}.to_frame(), FrameType::MapUpdateAck));
}

void ServeClient::append_ctx_frame(std::vector<std::uint8_t>& bytes,
                                   const obs::TraceContext& ctx) {
  if (!ctx.active()) return;
  append_frame(bytes, TraceContextMsg{ctx.trace_id, ctx.span_id}.to_frame());
}

void ServeClient::send_period(std::uint32_t session,
                              const std::vector<Event>& events,
                              std::uint64_t seq,
                              const obs::TraceContext& ctx) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  // One write for all frames: the envelope, the period payload, and its
  // delimiter.
  std::vector<std::uint8_t> bytes;
  append_ctx_frame(bytes, ctx);
  append_frame(bytes, EventsMsg{session, events}.to_frame());
  append_frame(bytes, EndPeriodMsg{session, seq, write_epoch_}.to_frame());
  net::write_all(fd_, bytes.data(), bytes.size());
}

std::uint64_t ServeClient::resume(std::uint32_t session) {
  const ResumeAckMsg ack = ResumeAckMsg::decode(
      call(SessionRefMsg{session}.to_frame(FrameType::Resume),
           FrameType::ResumeAck));
  BBMG_REQUIRE(ack.session == session, "resume: session mismatch in ack");
  return ack.high_water;
}

std::size_t ServeClient::send_trace(std::uint32_t session, const Trace& trace) {
  for (const Period& p : trace.periods()) {
    send_period(session, p.to_events());
  }
  return trace.num_periods();
}

WireSnapshot ServeClient::query(std::uint32_t session, bool drain,
                                const std::vector<Event>* probe,
                                const obs::TraceContext& ctx) {
  QueryMsg msg{session, drain, std::nullopt};
  if (probe != nullptr) msg.probe = *probe;
  const ModelReplyMsg reply = ModelReplyMsg::decode(
      call(msg.to_frame(), FrameType::ModelReply, ctx));
  WireSnapshot snap;
  snap.session = reply.session;
  snap.health = static_cast<HealthState>(reply.health);
  snap.periods_seen = reply.periods_seen;
  snap.periods_learned = reply.periods_learned;
  snap.periods_quarantined = reply.periods_quarantined;
  snap.repairs = reply.repairs;
  snap.converged = reply.converged != 0;
  snap.num_hypotheses = reply.num_hypotheses;
  snap.weight = reply.weight;
  snap.verdict = static_cast<ProbeVerdict>(reply.verdict);
  snap.num_violations = reply.num_violations;
  snap.lub = reply.lub;
  return snap;
}

obs::MetricsSnapshot ServeClient::fetch_metrics() {
  return MetricsResponseMsg::decode(call(MetricsRequestMsg{}.to_frame(),
                                         FrameType::MetricsResponse))
      .snapshot;
}

TraceDumpResponseMsg ServeClient::fetch_trace_dump(bool drain, bool flight) {
  return TraceDumpResponseMsg::decode(
      call(TraceDumpRequestMsg{drain, flight}.to_frame(),
           FrameType::TraceDumpResponse));
}

HealthResponseMsg ServeClient::fetch_health() {
  return HealthResponseMsg::decode(
      call(HealthRequestMsg{}.to_frame(), FrameType::HealthResponse));
}

VspaceResponseMsg ServeClient::fetch_vspace(std::uint32_t session) {
  return VspaceResponseMsg::decode(
      call(VspaceRequestMsg{session}.to_frame(), FrameType::VspaceResponse));
}

void ServeClient::close_session(std::uint32_t session) {
  (void)SessionRefMsg::decode(
      call(SessionRefMsg{session}.to_frame(FrameType::CloseSession),
           FrameType::SessionClosed));
}

}  // namespace bbmg
