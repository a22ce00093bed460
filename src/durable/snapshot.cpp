#include "durable/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "durable/checksum.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg::durable {

namespace {

void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

double read_f64(ByteReader& r) {
  return std::bit_cast<double>(r.read_u64());
}

/// write(2) until done, retrying EINTR; throws on error.
void write_fd_all(int fd, const std::uint8_t* data, std::size_t size,
                  const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("durable: write failed for " + path + ": " +
            std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsync_or_raise(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    raise("durable: fsync failed for " + what + ": " + std::strerror(errno));
  }
}

/// fsync the directory containing `path` so a rename is durable.
void fsync_parent_dir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    raise("durable: cannot open directory " + dir + ": " +
          std::strerror(errno));
  }
  fsync_or_raise(fd, dir);
  ::close(fd);
}

}  // namespace

// -- meta codec ------------------------------------------------------------

void append_session_meta(std::vector<std::uint8_t>& out,
                         const SessionMeta& meta) {
  append_u32(out, meta.session);
  append_task_names(out, meta.task_names);
  const RobustConfig& c = meta.config;
  append_u32(out, static_cast<std::uint32_t>(c.online.bound));
  append_u8(out, static_cast<std::uint8_t>(c.sanitize.policy));
  append_u64(out, static_cast<std::uint64_t>(c.sanitize.clock_skew_tolerance));
  append_u64(out, static_cast<std::uint64_t>(c.sanitize.period_length));
  append_f64(out, c.degraded_threshold);
  append_f64(out, c.failed_threshold);
  append_u64(out, static_cast<std::uint64_t>(c.min_periods_for_health));
  append_u32(out, meta.snapshot_interval);
}

SessionMeta read_session_meta(ByteReader& r) {
  SessionMeta meta;
  meta.session = r.read_u32();
  meta.task_names = read_task_names(r);
  RobustConfig& c = meta.config;
  const std::uint32_t bound = r.read_u32();
  BBMG_REQUIRE(bound >= 1 && bound <= (1u << 20),
               "durable: snapshot meta has implausible learner bound");
  c.online.bound = bound;
  const std::uint8_t policy = r.read_u8();
  BBMG_REQUIRE(policy <= static_cast<std::uint8_t>(SanitizePolicy::Quarantine),
               "durable: snapshot meta has unknown sanitize policy");
  c.sanitize.policy = static_cast<SanitizePolicy>(policy);
  c.sanitize.clock_skew_tolerance = static_cast<TimeNs>(r.read_u64());
  c.sanitize.period_length = static_cast<TimeNs>(r.read_u64());
  c.degraded_threshold = read_f64(r);
  c.failed_threshold = read_f64(r);
  c.min_periods_for_health = static_cast<std::size_t>(r.read_u64());
  meta.snapshot_interval = r.read_u32();
  return meta;
}

// -- codec -----------------------------------------------------------------

std::vector<std::uint8_t> encode_snapshot(
    const SessionMeta& meta, std::uint64_t seq,
    const RobustOnlineLearner& learner) {
  std::vector<std::uint8_t> payload;
  append_session_meta(payload, meta);
  append_u64(payload, seq);
  append_u64(payload, learner.periods_seen());
  for (int retired = 0; retired < 4; ++retired) append_u64(payload, 0);
  learner.encode_state(payload);
  BBMG_REQUIRE(payload.size() <= kMaxSnapshotPayload,
               "durable: snapshot payload exceeds the sanity cap");

  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 14);
  append_u32(out, kSnapshotMagic);
  append_u16(out, kSnapshotVersion);
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  append_u32(out, crc32(payload));
  return out;
}

LoadedSnapshot decode_snapshot(const std::uint8_t* data, std::size_t size) {
  ByteReader header(data, size);
  BBMG_REQUIRE(header.read_u32() == kSnapshotMagic,
               "durable: not a snapshot file (bad magic)");
  const std::uint16_t version = header.read_u16();
  BBMG_REQUIRE(version == kSnapshotVersion,
               "durable: unsupported snapshot version " +
                   std::to_string(version));
  const std::uint32_t payload_len = header.read_u32();
  BBMG_REQUIRE(payload_len <= kMaxSnapshotPayload,
               "durable: snapshot payload length exceeds the sanity cap");
  BBMG_REQUIRE(header.remaining() == payload_len + 4u,
               "durable: snapshot file length does not match its header");
  const std::uint8_t* payload = data + header.position();
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(payload[payload_len]) |
      (static_cast<std::uint32_t>(payload[payload_len + 1]) << 8) |
      (static_cast<std::uint32_t>(payload[payload_len + 2]) << 16) |
      (static_cast<std::uint32_t>(payload[payload_len + 3]) << 24);
  BBMG_REQUIRE(crc32(payload, payload_len) == stored_crc,
               "durable: snapshot checksum mismatch");

  ByteReader r(payload, payload_len);
  SessionMeta meta = read_session_meta(r);
  const std::uint64_t seq = r.read_u64();
  const std::uint64_t periods = r.read_u64();
  for (int retired = 0; retired < 4; ++retired) (void)r.read_u64();
  RobustOnlineLearner learner =
      RobustOnlineLearner::decode_state(meta.task_names, meta.config, r);
  BBMG_REQUIRE(r.done(), "durable: trailing bytes after snapshot payload");
  BBMG_REQUIRE(learner.periods_seen() == periods,
               "durable: snapshot stats disagree with learner state");
  return LoadedSnapshot{std::move(meta), seq, std::move(learner)};
}

LoadedSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  return decode_snapshot(bytes.data(), bytes.size());
}

// -- files -----------------------------------------------------------------

std::string snapshot_filename(std::uint64_t seq) {
  return "snap-" + std::to_string(seq) + ".bbsn";
}

std::optional<std::uint64_t> parse_snapshot_filename(const std::string& name) {
  constexpr std::string_view prefix = "snap-";
  constexpr std::string_view suffix = ".bbsn";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() || digits.size() > 20) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return seq;
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    raise("durable: cannot create " + tmp + ": " + std::strerror(errno));
  }
  try {
    write_fd_all(fd, bytes.data(), bytes.size(), tmp);
    fsync_or_raise(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    raise("durable: rename " + tmp + " -> " + path + " failed: " +
          std::strerror(err));
  }
  fsync_parent_dir(path);
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path,
                                          std::size_t max_size) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    raise("durable: cannot open " + path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      raise("durable: read failed for " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
    if (bytes.size() > max_size) {
      ::close(fd);
      raise("durable: " + path + " exceeds the size sanity cap");
    }
  }
  ::close(fd);
  return bytes;
}

LoadedSnapshot load_snapshot_file(const std::string& path) {
  return decode_snapshot(read_file_bytes(path));
}

}  // namespace bbmg::durable
