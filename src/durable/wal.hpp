// Per-session write-ahead log of accepted period batches.  The learner is
// order-deterministic — its state after N applied periods is a pure
// function of the applied-period prefix — so durability reduces to never
// losing that prefix: every period is appended to the WAL *before* it is
// fed to the learner, and recovery replays the tail past the newest
// snapshot to land on byte-identical state.
//
// File layout (little-endian):
//
//   header:  magic u32 'BBWL' | version u16 | session u32 | base_seq u64
//   record:  seq u64 | len u32 | crc32(payload) u32 | payload
//   payload: nevents u32 | nevents x event (trace/binary_codec framing)
//
// `base_seq` is the applied-period count already captured by the snapshot
// the log extends; records carry seq = base_seq+1, base_seq+2, ... in
// order.  Appends go through a single raw write(2) per record, so a
// process kill (SIGKILL) can only tear the *last* record — scan_wal
// detects the torn tail via length/CRC/sequence checks and reports the
// last good byte offset so recovery can truncate and keep appending.
// fsync is group-committed (one per `fsync_every` appends) and forced by
// flush(); only a machine crash can lose the unsynced tail, a process
// crash cannot.
//
// WalWriter is not thread-safe; SessionStore serializes access.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace bbmg::durable {

inline constexpr std::uint32_t kWalMagic = 0x4c574242u;  // "BBWL"
inline constexpr std::uint16_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderSize = 4 + 2 + 4 + 8;
/// Per-record payload sanity cap, aligned with the serve frame cap.
inline constexpr std::size_t kMaxWalRecordPayload = 64u * 1024 * 1024;

/// Canonical WAL basename inside a session directory.
inline constexpr const char* kWalFilename = "wal.bbwl";

// -- writing ---------------------------------------------------------------

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;

  /// Create (or truncate) the log at `path` and write a fresh header.
  /// The header is fsynced immediately so recovery never sees a WAL with
  /// a torn header unless the crash raced file creation itself.
  void create(const std::string& path, std::uint32_t session,
              std::uint64_t base_seq, std::size_t fsync_every);

  /// Reopen an existing, already-validated log for appending.  `last_seq`
  /// is the sequence of its final good record (== base_seq when empty),
  /// as reported by scan_wal after any torn-tail truncation.
  void open(const std::string& path, std::uint32_t session,
            std::uint64_t base_seq, std::uint64_t last_seq,
            std::size_t fsync_every);

  /// Append one accepted period.  `seq` must be last_seq()+1 (the caller
  /// assigns sequence numbers at learner-apply time, which is what makes
  /// replay deterministic).  One write(2) per record; group-commit fsync.
  void append(std::uint64_t seq, const std::vector<Event>& events);

  /// fsync any unsynced appends.  Returns the durable high-water mark
  /// (last_seq after the sync) — the honest value a Resume reply reports.
  std::uint64_t flush();

  /// Restart the log at a new base (after a snapshot at `base_seq` has
  /// been durably written): truncate and write a fresh header.  Entries
  /// up to base_seq are now covered by the snapshot and can be dropped.
  void rotate(std::uint64_t base_seq);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }
  [[nodiscard]] std::uint64_t base_seq() const { return base_seq_; }

  void close();

 private:
  void write_header();

  int fd_{-1};
  std::uint32_t session_{0};  // also names the log in error messages
  std::uint64_t base_seq_{0};
  std::uint64_t last_seq_{0};
  std::size_t fsync_every_{32};
  std::size_t unsynced_{0};
};

// -- scanning (recovery) ---------------------------------------------------

struct WalRecord {
  std::uint64_t seq{0};
  std::vector<Event> events;
};

struct WalScan {
  std::uint32_t session{0};
  std::uint64_t base_seq{0};
  /// Good records, contiguous from base_seq+1.
  std::vector<WalRecord> records;
  /// True if trailing bytes after the last good record were not a valid
  /// record (torn tail from a crash mid-append, or tail corruption).
  bool torn_tail{false};
  /// Byte offset of the end of the last good record (>= header size);
  /// recovery truncates the file here before reopening for append.
  std::uint64_t valid_bytes{0};
};

/// Scan a WAL image.  Throws bbmg::Error if the *header* is invalid (the
/// whole file is then quarantined); a bad record merely ends the scan with
/// torn_tail set — everything before it is still good.
[[nodiscard]] WalScan scan_wal(const std::uint8_t* data, std::size_t size);
[[nodiscard]] WalScan scan_wal(const std::vector<std::uint8_t>& bytes);

/// The validated fixed-size header of a WAL file.
struct WalHeader {
  std::uint32_t session{0};
  std::uint64_t base_seq{0};
};

/// Read and validate just the header of the WAL at `path`.  Throws
/// bbmg::Error on I/O failure or an invalid header (magic/version/size) —
/// the same condemnations as scan_wal, available without touching the
/// records, so recovery can reject a mismatched log before replaying it.
[[nodiscard]] WalHeader read_wal_header(const std::string& path);

/// Result of a streaming on-disk scan: scan_wal's verdicts without the
/// materialized records.
struct WalFileScan {
  std::uint32_t session{0};
  std::uint64_t base_seq{0};
  /// Sequence of the last good record (== base_seq when there is none).
  std::uint64_t last_seq{0};
  /// Number of good records handed to the callback.
  std::uint64_t records{0};
  bool torn_tail{false};
  std::uint64_t valid_bytes{0};
};

/// Stream-scan the WAL at `path`: records are read one at a time through
/// a reused buffer and handed to `on_record` in order, so an arbitrarily
/// long (but valid) log replays without ever being held in memory whole —
/// a WAL is legitimately up to snapshot_every x kMaxWalRecordPayload
/// bytes, far past any sane single-read cap.  Header failures throw like
/// scan_wal; a bad record ends the scan with torn_tail set after every
/// earlier record was already delivered.
WalFileScan scan_wal_file(
    const std::string& path,
    const std::function<void(WalRecord&&)>& on_record);

/// ftruncate `path` to `size` bytes (torn-tail repair).  Throws on error.
void truncate_file(const std::string& path, std::uint64_t size);

}  // namespace bbmg::durable
