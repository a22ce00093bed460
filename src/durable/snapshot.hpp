// Durable session snapshots — the compaction points of the crash-safety
// story (DESIGN.md "Durability & recovery").  A snapshot file captures
// everything needed to reconstruct a serving session's learner at one
// applied-period sequence number:
//
//   * the session metadata (id, task-name table, RobustConfig, publish
//     interval) so recovery can rebuild the session without the client;
//   * the applied-period high-water mark `seq`;
//   * a five-u64 stats block, written as (periods seen, 0, 0, 0, 0) — the
//     four zero slots once held raw-event totals nothing read; decode
//     checks the first against the learner and ignores the rest;
//   * RobustOnlineLearner::encode_state — the full learner state.
//
// File layout (little-endian, BBTC framing conventions):
//
//   magic u32 'BBSN' | version u16 | payload_len u32 | payload |
//   crc32(payload) u32
//
// Writes are atomic: encode to `<name>.tmp`, write + fsync, rename over
// the final name, fsync the directory.  A crash at any point leaves
// either the old file set or the new one — never a half-written snapshot
// that recovery could mistake for truth (the CRC catches torn renames on
// filesystems without atomic rename anyway).  Decoding is strict like the
// trace codec: wrong magic/version/CRC or malformed payload throws
// bbmg::Error; recovery.cpp turns that into quarantine, not a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "robust/robust_online_learner.hpp"

namespace bbmg::durable {

inline constexpr std::uint32_t kSnapshotMagic = 0x4e534242u;  // "BBSN"
inline constexpr std::uint16_t kSnapshotVersion = 1;
/// Sanity cap on the declared payload length (a corrupt header must not
/// drive a multi-gigabyte allocation).
inline constexpr std::size_t kMaxSnapshotPayload = 256u * 1024 * 1024;

/// Everything recovery needs to rebuild a session besides the learner
/// state itself.  This is durable's own type, not serve's SessionConfig,
/// so the dependency points serve -> durable and not back.
struct SessionMeta {
  std::uint32_t session{0};
  TaskNames task_names;
  RobustConfig config;
  /// Serve-layer publish interval (periods between snapshot publications);
  /// 0 = serve default.  Carried so a recovered session behaves like the
  /// original without the client re-sending Hello/OpenSession.
  std::uint32_t snapshot_interval{0};
};

/// A decoded snapshot: session metadata, the applied-period sequence
/// number it captures, and the restored learner.
struct LoadedSnapshot {
  SessionMeta meta;
  std::uint64_t seq{0};
  RobustOnlineLearner learner;
};

// -- codec -----------------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const SessionMeta& meta, std::uint64_t seq,
    const RobustOnlineLearner& learner);

/// Strict decode of a whole snapshot file image; throws bbmg::Error on any
/// malformation (magic, version, length, CRC, payload contents).
[[nodiscard]] LoadedSnapshot decode_snapshot(const std::uint8_t* data,
                                             std::size_t size);
[[nodiscard]] LoadedSnapshot decode_snapshot(
    const std::vector<std::uint8_t>& bytes);

// -- files -----------------------------------------------------------------

/// Canonical basename for a snapshot at `seq`: "snap-<seq>.bbsn".
[[nodiscard]] std::string snapshot_filename(std::uint64_t seq);

/// Parse the sequence number out of a snapshot basename; nullopt if the
/// name is not of the canonical form.
[[nodiscard]] std::optional<std::uint64_t> parse_snapshot_filename(
    const std::string& name);

/// Atomically write `bytes` to `path` (tmp + fsync + rename + dir fsync).
/// Throws bbmg::Error on any I/O failure.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Read a whole file into memory; throws bbmg::Error on I/O failure or if
/// the file exceeds `max_size`.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path, std::size_t max_size = kMaxSnapshotPayload * 2);

/// Load + decode one snapshot file.  Throws bbmg::Error on I/O failure or
/// corruption (callers quarantine on that).
[[nodiscard]] LoadedSnapshot load_snapshot_file(const std::string& path);

// -- meta codec (shared with the WAL header-less records) ------------------

void append_session_meta(std::vector<std::uint8_t>& out,
                         const SessionMeta& meta);
[[nodiscard]] SessionMeta read_session_meta(ByteReader& r);

}  // namespace bbmg::durable
