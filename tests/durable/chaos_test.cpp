// Chaos-hardening tests: the fault-injecting transport itself (seeded,
// deterministic), the frame decoder's adversarial-input behaviour
// (payload cap, FrameTooLarge, garbage streams), and a live server
// surviving a storm of chaotic connections.
#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gen/gm_case_study.hpp"
#include "serve/chaos_transport.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

/// In-memory Transport: reads from a scripted byte stream, records writes.
class MemoryTransport final : public net::Transport {
 public:
  explicit MemoryTransport(std::vector<std::uint8_t> incoming = {})
      : incoming_(std::move(incoming)) {}

  std::size_t read_some(std::uint8_t* data, std::size_t size) override {
    const std::size_t n = std::min(size, incoming_.size() - cursor_);
    std::memcpy(data, incoming_.data() + cursor_, n);
    cursor_ += n;
    return n;  // 0 at end-of-script == clean EOF
  }

  void write(const std::uint8_t* data, std::size_t size) override {
    written_.insert(written_.end(), data, data + size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& written() const {
    return written_;
  }

 private:
  std::vector<std::uint8_t> incoming_;
  std::size_t cursor_{0};
  std::vector<std::uint8_t> written_;
};

Frame small_frame() {
  return SessionRefMsg{7}.to_frame(FrameType::Resume);
}

// -- FrameDecoder cap ------------------------------------------------------

/// A bare 5-byte frame header declaring `length` payload bytes.
std::vector<std::uint8_t> frame_header(std::uint32_t length) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((length >> (8 * i)) & 0xff));
  }
  bytes.push_back(static_cast<std::uint8_t>(FrameType::Events));
  return bytes;
}

TEST(FrameCap, OversizedDeclaredLengthThrowsTypedError) {
  FrameDecoder decoder;
  const std::uint32_t declared =
      static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  const std::vector<std::uint8_t> bytes = frame_header(declared);
  decoder.feed(bytes.data(), bytes.size());
  try {
    (void)decoder.next();
    FAIL() << "expected FrameTooLarge";
  } catch (const FrameTooLarge& e) {
    EXPECT_EQ(e.declared(), declared);
    EXPECT_EQ(e.cap(), kMaxFramePayload);
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(FrameCap, FramesAtTheCapStillParse) {
  // A header declaring exactly the cap is accepted: the decoder waits for
  // the payload instead of throwing.
  FrameDecoder decoder;
  const std::vector<std::uint8_t> bytes =
      frame_header(static_cast<std::uint32_t>(kMaxFramePayload));
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), bytes.size());
}

TEST(FrameCap, GarbageStreamsThrowInsteadOfCrashing) {
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    FrameDecoder decoder;
    std::vector<std::uint8_t> junk(64 + rng.next_below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    decoder.feed(junk.data(), junk.size());
    try {
      while (decoder.next().has_value()) {
      }
      // Draining without a throw is fine too (junk can look like an
      // incomplete frame); the property is "no crash, no huge alloc".
    } catch (const Error&) {
    }
  }
}

// -- ChaosTransport --------------------------------------------------------

net::ChaosConfig chaotic(std::uint64_t seed) {
  net::ChaosConfig config;
  config.seed = seed;
  config.delay_prob = 0.1;
  config.max_delay_us = 50;
  config.reset_prob = 0.2;
  config.partial_write_prob = 0.5;
  config.truncate_read_prob = 0.3;
  return config;
}

TEST(ChaosTransport, SameSeedSameFaults) {
  std::vector<std::uint8_t> outcome[2];
  std::uint64_t faults[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    MemoryTransport inner(std::vector<std::uint8_t>(512, 0x11));
    net::ChaosTransport chaos(inner, chaotic(42));
    const std::vector<std::uint8_t> payload(64, 0x44);
    std::uint8_t buf[64];
    try {
      for (int i = 0; i < 32; ++i) {
        chaos.write(payload.data(), payload.size());
        (void)chaos.read_some(buf, sizeof buf);
      }
    } catch (const Error&) {
    }
    outcome[run] = inner.written();
    faults[run] = chaos.injected_faults();
  }
  EXPECT_EQ(outcome[0], outcome[1]);
  EXPECT_EQ(faults[0], faults[1]);
  EXPECT_GT(faults[0], 0u);
}

TEST(ChaosTransport, ResetPoisonsTheTransport) {
  MemoryTransport inner(std::vector<std::uint8_t>(4096, 0x22));
  net::ChaosConfig config;
  config.seed = 7;
  config.reset_prob = 1.0;
  net::ChaosTransport chaos(inner, config);
  std::uint8_t buf[16];
  EXPECT_THROW((void)chaos.read_some(buf, sizeof buf), Error);
  // Every subsequent operation fails too — like a closed socket.
  EXPECT_THROW(chaos.write(buf, sizeof buf), Error);
  EXPECT_THROW((void)chaos.read_some(buf, sizeof buf), Error);
  EXPECT_GE(chaos.injected_faults(), 1u);
}

TEST(ChaosTransport, PartialWritesPreserveByteOrder) {
  MemoryTransport inner;
  net::ChaosConfig config;
  config.seed = 3;
  config.partial_write_prob = 1.0;  // fragment every write, never reset
  net::ChaosTransport chaos(inner, config);
  std::vector<std::uint8_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i & 0xff);
  }
  chaos.write(payload.data(), payload.size());
  EXPECT_EQ(inner.written(), payload);  // fragmented but lossless in order
}

TEST(ChaosTransport, TruncatedReadDeliversStrictPrefixThenPoisons) {
  MemoryTransport inner(std::vector<std::uint8_t>(256, 0x33));
  net::ChaosConfig config;
  config.seed = 5;
  config.truncate_read_prob = 1.0;
  net::ChaosTransport chaos(inner, config);
  std::uint8_t buf[128];
  const std::size_t n = chaos.read_some(buf, sizeof buf);
  EXPECT_GT(n, 0u);
  EXPECT_LT(n, sizeof buf);
  EXPECT_THROW((void)chaos.read_some(buf, sizeof buf), Error);
}

// -- live server under chaotic clients ------------------------------------

TEST(ChaosTransport, AsymmetricPartitionDropsOneDirectionOnly) {
  // Model a one-way partition between peers A and B: A->B delivers, B->A
  // black-holes.  The dropping side reports success (no error, no
  // poisoning) — exactly the failure a sender cannot distinguish from a
  // slow peer until its reply deadline fires.
  std::vector<std::uint8_t> frame_bytes;
  append_frame(frame_bytes, small_frame());

  MemoryTransport a_to_b_wire;
  net::ChaosTransport a_to_b(a_to_b_wire, {});
  a_to_b.write(frame_bytes.data(), frame_bytes.size());
  EXPECT_EQ(a_to_b_wire.written(), frame_bytes);

  net::ChaosConfig black_hole;
  black_hole.drop_write_prob = 1.0;
  // B can still *hear* A on this transport; only its writes vanish.
  MemoryTransport b_to_a_wire(frame_bytes);
  net::ChaosTransport b_to_a(b_to_a_wire, black_hole);
  std::vector<std::uint8_t> heard(frame_bytes.size());
  EXPECT_EQ(b_to_a.read_some(heard.data(), heard.size()), heard.size());
  EXPECT_EQ(heard, frame_bytes);

  b_to_a.write(frame_bytes.data(), frame_bytes.size());
  b_to_a.write(frame_bytes.data(), frame_bytes.size());
  EXPECT_TRUE(b_to_a_wire.written().empty());
  EXPECT_FALSE(b_to_a.poisoned());
  EXPECT_EQ(b_to_a.injected_faults(), 2u);

  // A's decoder on the starved direction never sees a frame boundary —
  // the sender's only signal is silence.
  FrameDecoder decoder;
  decoder.feed(b_to_a_wire.written().data(), b_to_a_wire.written().size());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(ChaosTransport, DroppedWritesAreSeededAndDeterministic) {
  const auto faults_for_seed = [](std::uint64_t seed) {
    net::ChaosConfig config;
    config.seed = seed;
    config.drop_write_prob = 0.5;
    MemoryTransport inner;
    net::ChaosTransport chaos(inner, config);
    std::uint8_t byte = 0xab;
    for (int i = 0; i < 64; ++i) chaos.write(&byte, 1);
    return std::pair<std::uint64_t, std::size_t>{chaos.injected_faults(),
                                                 inner.written().size()};
  };
  const auto a = faults_for_seed(42);
  EXPECT_EQ(a, faults_for_seed(42));
  EXPECT_EQ(a.first + a.second, 64u);  // every write dropped xor delivered
  EXPECT_GT(a.first, 0u);
  EXPECT_GT(a.second, 0u);
}

TEST(ChaosEndToEnd, ServerSurvivesChaoticConnectionsAndStaysCorrect) {
  Server server;
  server.start();

  SimConfig sim;
  sim.seed = 13;
  const Trace trace = simulate_trace(gm_case_study_model(), 6, sim);

  // Open a clean control session first and learn the reference model.
  ServeClient control;
  control.connect("127.0.0.1", server.port());
  const std::uint32_t session = control.open_session(trace.task_names());
  control.send_trace(session, trace);
  const WireSnapshot want = control.query(session, /*drain=*/true);

  // Now hammer the server with chaotic connections that tear frames,
  // reset mid-handshake, and go silent.  None of them may take the
  // server (or the control session's model) down.
  std::size_t survived_rounds = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const int fd = net::connect_tcp("127.0.0.1", server.port());
    net::FdTransport socket(fd);
    net::ChaosTransport chaos(socket, chaotic(seed));
    FrameDecoder decoder;
    try {
      net::write_frame(chaos, HelloMsg{}.to_frame(FrameType::Hello));
      (void)net::read_frame(chaos, decoder);
      OpenSessionMsg open;
      open.task_names = trace.task_names();
      net::write_frame(chaos, open.to_frame());
      (void)net::read_frame(chaos, decoder);
      for (const Period& p : trace.periods()) {
        EventsMsg events;
        events.session = session + 1;  // best effort; may never arrive
        events.events = p.to_events();
        net::write_frame(chaos, events.to_frame());
        net::write_frame(chaos, small_frame());
      }
      ++survived_rounds;
    } catch (const Error&) {
      // Injected fault killed this connection — expected.
    }
    net::close_socket(fd);
  }
  (void)survived_rounds;

  // The server is still alive and the control session still serves the
  // exact model it learned before the storm.
  const WireSnapshot after = control.query(session, /*drain=*/false);
  EXPECT_TRUE(after.lub == want.lub);
  EXPECT_EQ(after.periods_seen, want.periods_seen);
  server.stop();
}

}  // namespace
}  // namespace bbmg
