// Write-ahead log for view admissions. Every ViewService::AdmitView(s)
// call on a durable service appends one record — the epoch it published and
// the views it admitted — BEFORE the new snapshot becomes visible, so a
// crash at any point loses at most the admission whose append never
// completed. Recovery (ViewService::Open) replays records newer than the
// loaded snapshot; Compact() folds the log into a fresh snapshot and
// resets it.
//
// File layout (store/codec.h conventions):
//   header(kWal), then framed records [varint len][payload][crc32], each
//   payload = tag byte + epoch varint + view count + encoded views.
//
// Torn tails: a crash mid-append leaves a truncated or CRC-broken final
// record. ReplayWal parses the longest valid prefix and reports the tail
// (`torn_tail`, `valid_bytes`, `tail_error`) instead of failing — the
// writer then reopens truncated to `valid_bytes`, dropping the torn bytes.
// Corruption STOPS replay: records after a bad one are unreachable by
// design (their ordering guarantee is gone), exactly like LevelDB-family
// logs.
//
// Durability: every append is written straight to the kernel through a
// util/file_io.h AppendFile and fsynced every `sync_every` records (1 =
// every append; larger values batch fsyncs for admission-heavy loads at the
// cost of losing up to sync_every-1 tail records on power failure — a
// process crash loses nothing an Append returned OK for).
//
// Thread-safety: WalWriter is NOT internally synchronized; the ViewService
// serializes appends under its writer mutex. ReplayWal is a pure read.

#ifndef GVEX_STORE_WAL_H_
#define GVEX_STORE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "explain/explanation.h"
#include "util/file_io.h"
#include "util/status.h"

namespace gvex {

/// Conventional WAL file name inside a store directory.
std::string WalFileName();

/// One logged admission: the epoch it published and the admitted views.
struct WalRecord {
  uint64_t epoch = 0;
  std::vector<ExplanationView> views;
};

/// The result of scanning a WAL file.
struct WalReplay {
  std::vector<WalRecord> records;  ///< longest valid prefix, file order
  uint64_t valid_bytes = 0;        ///< offset just past the last valid record
  bool torn_tail = false;          ///< trailing bytes were dropped
  std::string tail_error;          ///< why parsing stopped (when torn)
};

/// Scans `path`. NotFound when the file does not exist; InvalidArgument
/// when even the header is unusable (the log carries no recoverable data).
/// A valid header with a broken tail succeeds with `torn_tail` set.
Result<WalReplay> ReplayWal(const std::string& path);

/// The identity of one WAL *generation*: the epoch of its FIRST record.
/// Compact() resets the log, and because every record the old log held had
/// epoch <= the compacted snapshot, the reset log's first record carries a
/// strictly LARGER epoch than the old log's first record ever did. Two logs
/// of one store history with different first epochs are therefore different
/// generations (resync, don't compare bytes); equal first epochs mean the
/// shorter log must be a byte-identical prefix of the longer one — anything
/// else is divergence. Used by the replication applier (store/replication.h).
struct WalStart {
  bool has_records = false;
  uint64_t first_epoch = 0;  ///< meaningful only when has_records
};

/// Reads just enough of `path` to report its first record's epoch. NotFound
/// when the file does not exist; a header-only (or torn-before-first-record)
/// log reports has_records = false.
Result<WalStart> ReadWalStart(const std::string& path);

/// Append handle over one WAL file.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending. A missing or empty file is created with a
  /// fresh header. `truncate_to` (from WalReplay::valid_bytes) drops a torn
  /// tail before appending resumes; pass the file's full size (or simply
  /// the replay's valid_bytes) when the log is clean.
  Status Open(const std::string& path, uint64_t truncate_to);

  /// Serializes one admission record, appends it, and applies the fsync
  /// policy. The record is durable (modulo batching) when this returns OK.
  /// On a write failure the log is truncated back to the last good offset,
  /// so a LATER successful append is never stranded behind torn bytes; if
  /// even the rollback fails, the writer latches into a failed state and
  /// every subsequent Append/Sync errors until Open is called again.
  Status Append(const WalRecord& record);

  /// Flushes and fsyncs any batched appends immediately.
  Status Sync();

  /// Truncates the log back to just its header (after compaction).
  Status Reset();

  /// fsyncs and closes the file, returning the first failure. OK when
  /// nothing is open.
  Status Close();

  bool is_open() const { return file_.is_open(); }
  /// Current file size in bytes (header included) — drives the automatic
  /// compaction threshold.
  uint64_t file_bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// fsync after every N appends (min 1).
  void set_sync_every(int n) { sync_every_ = n < 1 ? 1 : n; }
  int sync_every() const { return sync_every_; }

 private:
  /// Truncates the file back to `offset` after a failed write; latches
  /// failed_ when the rollback itself fails.
  void RestoreTo(uint64_t offset);

  AppendFile file_;
  std::string path_;
  uint64_t bytes_ = 0;
  int sync_every_ = 1;
  int unsynced_ = 0;
  /// Set when the file may hold torn bytes that could not be rolled back.
  bool failed_ = false;
};

}  // namespace gvex

#endif  // GVEX_STORE_WAL_H_
