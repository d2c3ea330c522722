// Write-ahead delta journal for the online-update subsystem.
//
// Every acknowledged Insert/Erase is framed, CRC-checked, and appended to an
// epoch-scoped journal file BEFORE the caller's Status turns OK, so a
// process crash between ingestion and the next refresh loses nothing the
// caller was told succeeded. One journal file covers exactly one published
// epoch: it opens with an epoch-boundary marker, accumulates that epoch's
// deltas, and is retired when a refresh publishes the successor epoch
// (deltas staged mid-refresh are re-journaled, already translated, into the
// successor's file by DeltaBuffer::RearmAfterRefresh).
//
// File layout (all integers little-endian via common/serialize.h):
//
//   magic     8 bytes  "SIMCJNL1"
//   version   u32      currently 1
//   dim       u64      width of insert payloads (Replay refuses 0)
//   records   framed, back to back:
//     payload_len  u32
//     payload_crc  u32   CRC-32 of the payload bytes (common/crc32)
//     payload      payload_len bytes:
//       type u32 (JournalRecordType), then per type:
//         kEpochMark: epoch u64, base_rows u64
//         kInsert:    dim f32s (raw, no length prefix — dim is in the header)
//         kErase:     row u32
//
// Torn-write discipline: records become visible atomically or not at all.
// Replay() walks frames until the first one that does not fully parse — a
// short header, a length past end-of-file, a CRC mismatch, or an unknown
// type — and reports everything before it as the longest valid prefix; the
// invalid tail's byte count is reported so recovery can truncate it off
// before re-opening the file for append.
//
// Durability: every Append* issues the write(2) immediately (a process
// crash never loses an acknowledged record — the bytes are in the page
// cache), and fsync(2) runs every `group_commit` records so a power loss
// can lose at most one commit group. group_commit = 1 is fsync-per-record;
// fsync = false trusts the page cache entirely (bench mode).
//
// Fault site: update.journal_io fails the append/sync paths.
//
// Metrics (gated on obs::MetricsEnabled()):
//   counters  simcard.update.journal.appends, .syncs, .bytes,
//             .append_failures
#ifndef SIMCARD_UPDATE_DELTA_JOURNAL_H_
#define SIMCARD_UPDATE_DELTA_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace simcard {
namespace update {

/// \brief Journal durability knobs.
struct JournalOptions {
  /// Records per fsync batch: 1 = fsync every record, N = group commit of
  /// N (plus an unconditional fsync on Sync()/close).
  size_t group_commit = 16;
  /// false = never fsync (page-cache durability only; survives process
  /// crash, not power loss). Benchmarks' "journal off the fsync path" mode.
  bool fsync = true;
};

enum class JournalRecordType : uint32_t {
  kEpochMark = 1,
  kInsert = 2,
  kErase = 3,
};

/// \brief One replayed record (fields valid per `type`).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kEpochMark;
  uint64_t epoch = 0;        ///< kEpochMark
  uint64_t base_rows = 0;    ///< kEpochMark
  std::vector<float> point;  ///< kInsert
  uint32_t row = 0;          ///< kErase
};

/// \brief Append-only, CRC-framed delta journal for one epoch.
///
/// Not synchronized: DeltaBuffer appends under its own mutex, and the
/// UpdateManager swaps journals only inside that same critical section.
class DeltaJournal {
 public:
  ~DeltaJournal();
  DeltaJournal(const DeltaJournal&) = delete;
  DeltaJournal& operator=(const DeltaJournal&) = delete;

  /// Creates (truncating any existing file) a journal whose inserts carry
  /// `dim` floats, and writes the header.
  static Result<std::unique_ptr<DeltaJournal>> Create(
      const std::string& path, size_t dim, const JournalOptions& options);

  /// Re-opens an existing journal for append after a Replay() pass.
  /// `valid_bytes` (Replay's longest valid prefix) truncates any torn or
  /// corrupt tail off the file first, so new records never append after
  /// garbage.
  static Result<std::unique_ptr<DeltaJournal>> OpenForAppend(
      const std::string& path, size_t dim, uint64_t valid_bytes,
      const JournalOptions& options);

  /// Appends an epoch-boundary marker (the first record of every journal).
  Status AppendEpochMark(uint64_t epoch, uint64_t base_rows);

  /// Appends one inserted vector (must hold exactly dim() floats).
  Status AppendInsert(std::span<const float> point);

  /// Appends the erase of base row `row`.
  Status AppendErase(uint32_t row);

  /// Flushes and (when options.fsync) fsyncs everything appended so far.
  Status Sync();

  size_t dim() const { return dim_; }
  const std::string& path() const { return path_; }
  /// Bytes of journal written so far (header + all appended frames).
  uint64_t offset() const { return offset_; }
  /// Appends since the last fsync (0 right after Sync()).
  size_t unsynced_records() const { return unsynced_records_; }

  /// \brief What Replay() recovered.
  struct ReplayResult {
    std::vector<JournalRecord> records;  ///< longest valid prefix, in order
    uint64_t dim = 0;           ///< header width of insert payloads
    uint64_t valid_bytes = 0;   ///< header + every fully-valid frame
    uint64_t discarded_bytes = 0;  ///< torn/corrupt tail past valid_bytes
    bool tail_truncated = false;   ///< discarded_bytes > 0
  };

  /// Reads `path` and returns every record of the longest valid prefix.
  /// A torn or corrupt tail is never an error — it is measured and
  /// excluded; only a missing/unreadable file or a bad header fails. A
  /// header `dim` of 0, or one too wide for any insert frame, is a bad
  /// header.
  static Result<ReplayResult> Replay(const std::string& path);

 private:
  DeltaJournal(std::string path, size_t dim, JournalOptions options);

  Status AppendFrame(const std::vector<uint8_t>& payload);
  Status FsyncNow();

  std::string path_;
  size_t dim_ = 0;
  JournalOptions options_;
  int fd_ = -1;
  uint64_t offset_ = 0;
  size_t unsynced_records_ = 0;
};

}  // namespace update
}  // namespace simcard

#endif  // SIMCARD_UPDATE_DELTA_JOURNAL_H_
