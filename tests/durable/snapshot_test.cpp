// Snapshot codec: roundtrip fidelity (the restored learner is
// byte-identical), a size that does not grow with the period count, files
// in the older layout (filled stats block, per-period frontier trace),
// strict rejection of every corruption class, filename conventions, and
// the atomic file helpers.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "durable/checksum.hpp"
#include "durable/snapshot.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "sim/simulator.hpp"

namespace bbmg::durable {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bbmg_snap_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A learner with real state: the GM case study simulated for `periods`.
struct Fixture {
  Trace trace;
  SessionMeta meta;
  RobustOnlineLearner learner;

  explicit Fixture(std::size_t periods, std::uint64_t seed = 11)
      : trace([&] {
          SimConfig cfg;
          cfg.seed = seed;
          return simulate_trace(gm_case_study_model(), periods, cfg);
        }()),
        meta(),
        learner([&] {
          meta.session = 5;
          meta.task_names = trace.task_names();
          meta.config.online.bound = 12;
          meta.snapshot_interval = 4;
          return RobustOnlineLearner(meta.task_names, meta.config);
        }()) {
    for (const Period& p : trace.periods()) {
      learner.observe_raw_period(p.to_events());
    }
  }
};

std::vector<std::uint8_t> learner_bytes(const RobustOnlineLearner& l) {
  std::vector<std::uint8_t> out;
  l.encode_state(out);
  return out;
}

TEST(SnapshotCodec, RoundtripRestoresEverything) {
  Fixture fx(9);
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(fx.meta, 9, fx.learner);
  const LoadedSnapshot loaded = decode_snapshot(bytes);

  EXPECT_EQ(loaded.meta.session, 5u);
  EXPECT_EQ(loaded.meta.task_names, fx.trace.task_names());
  EXPECT_EQ(loaded.meta.config.online.bound, 12u);
  EXPECT_EQ(loaded.meta.snapshot_interval, 4u);
  EXPECT_EQ(loaded.seq, 9u);
  EXPECT_EQ(loaded.learner.periods_seen(), 9u);
  EXPECT_EQ(learner_bytes(loaded.learner), learner_bytes(fx.learner));
}

TEST(SnapshotCodec, SizeDoesNotGrowWithThePeriodCount) {
  // A session fed one period over and over: its frontier settles, and the
  // snapshot is the frontier plus fixed-size counters.
  RandomModelParams params;
  params.num_tasks = 5;
  params.num_layers = 3;
  params.seed = 2;
  const Trace trace = simulate_trace(random_model(params), 1, SimConfig{});
  const std::vector<Event> period = trace.periods()[0].to_events();
  SessionMeta meta;
  meta.task_names = trace.task_names();
  RobustOnlineLearner learner(meta.task_names, meta.config);
  std::size_t size_at_10 = 0;
  for (std::uint64_t n = 1; n <= 10000; ++n) {
    learner.observe_raw_period(period);
    if (n == 10) size_at_10 = encode_snapshot(meta, n, learner).size();
  }
  EXPECT_EQ(learner.periods_seen(), 10000u);
  EXPECT_EQ(encode_snapshot(meta, 10000, learner).size(), size_at_10);
}

TEST(SnapshotCodec, RestoredLearnerContinuesIdentically) {
  Fixture fx(6);
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(fx.meta, 6, fx.learner);
  LoadedSnapshot loaded = decode_snapshot(bytes);

  SimConfig cfg;
  cfg.seed = 99;
  const Trace more = simulate_trace(gm_case_study_model(), 5, cfg);
  for (const Period& p : more.periods()) {
    const std::vector<Event> events = p.to_events();
    fx.learner.observe_raw_period(events);
    loaded.learner.observe_raw_period(events);
  }
  EXPECT_EQ(learner_bytes(loaded.learner), learner_bytes(fx.learner));
}

void put_u64(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Byte offset of the stats block inside a snapshot file: header, session
/// meta, seq.
std::size_t stats_offset(const SessionMeta& meta) {
  std::vector<std::uint8_t> m;
  append_session_meta(m, meta);
  return 10 + m.size() + 8;
}

/// Re-frame an edited snapshot file: fix the payload length and the CRC.
void reframe(std::vector<std::uint8_t>& file) {
  const std::size_t payload_len = file.size() - 10;
  for (std::size_t i = 0; i < 4; ++i) {
    file[6 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  append_u32(file, crc32(file.data() + 10, payload_len));
}

/// The fixture's snapshot in the layout older builds wrote: a filled stats
/// block (periods, events, task events, message events, max makespan) and
/// a per-period frontier trace closing the learner state that claims
/// `claimed` entries and holds `present` of them.
std::vector<std::uint8_t> older_layout(const Fixture& fx, std::uint64_t seq,
                                       std::uint32_t claimed,
                                       std::uint32_t present) {
  std::vector<std::uint8_t> file = encode_snapshot(fx.meta, seq, fx.learner);
  const std::size_t stats_at = stats_offset(fx.meta);
  put_u64(file, stats_at + 8, 4321);   // events
  put_u64(file, stats_at + 16, 2400);  // task events
  put_u64(file, stats_at + 24, 1921);  // message events
  put_u64(file, stats_at + 32, 9876543);  // max makespan
  // Drop the CRC and the trace count (the learner state's last u32, now
  // always 0), then append the older trace.
  file.resize(file.size() - 8);
  file.reserve(file.size() + 4 + 4 * static_cast<std::size_t>(present) + 4);
  append_u32(file, claimed);
  for (std::uint32_t i = 0; i < present; ++i) append_u32(file, 1 + i % 7);
  reframe(file);
  return file;
}

TEST(SnapshotCodec, OlderLayoutDecodesAndContinuesIdentically) {
  SimConfig cfg;
  cfg.seed = 99;
  const Trace more = simulate_trace(gm_case_study_model(), 5, cfg);
  // A trace past 2^24 entries is one a session past 2^24 periods wrote.
  for (const std::uint32_t trace_len : {6u, (1u << 24) + 1}) {
    SCOPED_TRACE("trace entries " + std::to_string(trace_len));
    Fixture fx(6);
    LoadedSnapshot loaded =
        decode_snapshot(older_layout(fx, 6, trace_len, trace_len));
    EXPECT_EQ(loaded.seq, 6u);
    EXPECT_TRUE(
        loaded.learner.learner().stats().frontier_after_period.empty());
    EXPECT_EQ(encode_snapshot(fx.meta, 6, loaded.learner),
              encode_snapshot(fx.meta, 6, fx.learner));
    for (const Period& p : more.periods()) {
      const std::vector<Event> events = p.to_events();
      fx.learner.observe_raw_period(events);
      loaded.learner.observe_raw_period(events);
    }
    EXPECT_EQ(learner_bytes(loaded.learner), learner_bytes(fx.learner));
  }
}

TEST(SnapshotCodec, NewLayoutWritesTheRetiredFieldsAsZero) {
  Fixture fx(4);
  const std::vector<std::uint8_t> file =
      encode_snapshot(fx.meta, 4, fx.learner);
  ByteReader r(file.data() + stats_offset(fx.meta),
               file.size() - stats_offset(fx.meta));
  EXPECT_EQ(r.read_u64(), 4u);  // periods seen
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.read_u64(), 0u);
  // The learner state closes with an empty trace, just before the CRC.
  ByteReader tail(file.data() + file.size() - 8, 4);
  EXPECT_EQ(tail.read_u32(), 0u);
}

TEST(SnapshotCodec, CountsThatDisagreeWithTheLearnerAreRejected) {
  Fixture fx(5);
  const std::vector<std::uint8_t> good =
      encode_snapshot(fx.meta, 5, fx.learner);
  const std::size_t stats_at = stats_offset(fx.meta);
  // Stats-block periods, robust seen, robust quarantined: each must match
  // the nested learner's counters.
  for (const std::size_t at : {stats_at, stats_at + 40, stats_at + 48}) {
    std::vector<std::uint8_t> bad(good.begin(), good.end() - 4);
    put_u64(bad, at, 7);
    reframe(bad);
    EXPECT_THROW((void)decode_snapshot(bad), Error) << "offset " << at;
  }
  // A trace count the payload cannot back.
  EXPECT_THROW((void)decode_snapshot(older_layout(fx, 5, 0xffffffffu, 3)),
               Error);
}

TEST(SnapshotCodec, EveryCorruptionClassIsRejected) {
  Fixture fx(3);
  const std::vector<std::uint8_t> good =
      encode_snapshot(fx.meta, 3, fx.learner);

  auto mutated = [&](std::size_t offset) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] ^= 0xff;
    return bad;
  };
  EXPECT_THROW((void)decode_snapshot(mutated(0)), Error);  // magic
  EXPECT_THROW((void)decode_snapshot(mutated(4)), Error);  // version
  // Payload byte: caught by the CRC before the payload decoder runs.
  EXPECT_THROW((void)decode_snapshot(mutated(good.size() / 2)), Error);
  // Trailing CRC itself.
  EXPECT_THROW((void)decode_snapshot(mutated(good.size() - 1)), Error);

  // Truncations at every region boundary.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{10}, good.size() - 2}) {
    const std::vector<std::uint8_t> cut(good.begin(), good.begin() + keep);
    EXPECT_THROW((void)decode_snapshot(cut), Error) << "keep=" << keep;
  }

  // Trailing garbage after the CRC.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0xaa);
  EXPECT_THROW((void)decode_snapshot(padded), Error);

  EXPECT_NO_THROW((void)decode_snapshot(good));
}

TEST(SnapshotCodec, DeclaredLengthBeyondCapIsRejected) {
  Fixture fx(2);
  std::vector<std::uint8_t> bad =
      encode_snapshot(fx.meta, 2, fx.learner);
  // Overwrite payload_len (bytes 6..9) with a huge value.
  const std::uint64_t huge = kMaxSnapshotPayload + 1;
  for (int i = 0; i < 4; ++i) {
    bad[6 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((huge >> (8 * i)) & 0xff);
  }
  EXPECT_THROW((void)decode_snapshot(bad), Error);
}

TEST(SnapshotFiles, FilenameRoundtrip) {
  EXPECT_EQ(snapshot_filename(0), "snap-0.bbsn");
  EXPECT_EQ(snapshot_filename(1234), "snap-1234.bbsn");
  EXPECT_EQ(parse_snapshot_filename("snap-1234.bbsn"), 1234u);
  EXPECT_EQ(parse_snapshot_filename("snap-0.bbsn"), 0u);
  EXPECT_EQ(parse_snapshot_filename("snap-.bbsn"), std::nullopt);
  EXPECT_EQ(parse_snapshot_filename("snap-12.tmp"), std::nullopt);
  EXPECT_EQ(parse_snapshot_filename("wal.bbwl"), std::nullopt);
  EXPECT_EQ(parse_snapshot_filename("snap-12x.bbsn"), std::nullopt);
}

TEST(SnapshotFiles, AtomicWriteAndLoadRoundtrip) {
  const std::string dir = fresh_dir("atomic");
  Fixture fx(4);
  const std::string path = dir + "/" + snapshot_filename(4);
  write_file_atomic(path, encode_snapshot(fx.meta, 4, fx.learner));
  const LoadedSnapshot loaded = load_snapshot_file(path);
  EXPECT_EQ(loaded.seq, 4u);
  EXPECT_EQ(learner_bytes(loaded.learner), learner_bytes(fx.learner));

  // Overwrite in place (a later snapshot reusing a name must not append).
  write_file_atomic(path, encode_snapshot(fx.meta, 4, fx.learner));
  EXPECT_NO_THROW((void)load_snapshot_file(path));
  // No .tmp litter left behind.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".bbsn") << entry.path();
  }
}

TEST(SnapshotFiles, ReadFileBytesEnforcesCap) {
  const std::string dir = fresh_dir("cap");
  const std::string path = dir + "/blob";
  write_file_atomic(path, std::vector<std::uint8_t>(1024, 0x5a));
  EXPECT_EQ(read_file_bytes(path).size(), 1024u);
  EXPECT_THROW((void)read_file_bytes(path, 1023), Error);
  EXPECT_THROW((void)read_file_bytes(dir + "/missing"), Error);
}

}  // namespace
}  // namespace bbmg::durable
