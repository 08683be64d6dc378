#include "store/wal.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "store/codec.h"
#include "util/file_io.h"

namespace gvex {

namespace {

constexpr uint8_t kAdmitTag = 1;

// WAL instruments, registered once (appends then never touch the registry
// lock). Append covers the whole call — framing, write, and any fsync its
// sync_every policy triggered — so batched-sync configurations show their
// bimodal latency.
struct WalInstruments {
  obs::Histogram* append_seconds;
  obs::Histogram* fsync_seconds;
  obs::Counter* appended_bytes;
};

const WalInstruments& WalObs() {
  static const WalInstruments* instruments = [] {
    auto* wi = new WalInstruments();
    obs::Registry& m = obs::Metrics();
    wi->append_seconds = m.GetHistogram(
        "gvex_wal_append_seconds",
        "WAL append duration, including any fsync the batching policy "
        "triggered",
        obs::Unit::kNanoseconds);
    wi->fsync_seconds =
        m.GetHistogram("gvex_wal_fsync_seconds", "WAL flush+fsync duration",
                       obs::Unit::kNanoseconds);
    wi->appended_bytes = m.GetCounter(
        "gvex_wal_appended_bytes_total",
        "Bytes appended to the WAL (successful appends only)");
    return wi;
  }();
  return *instruments;
}

double WalSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload(1, static_cast<char>(kAdmitTag));
  PutVarint64(&payload, record.epoch);
  PutVarint64(&payload, record.views.size());
  for (const ExplanationView& v : record.views) EncodeView(v, &payload);
  return payload;
}

Status DecodeWalRecord(const std::string& payload, WalRecord* record) {
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kAdmitTag) {
    return Status::InvalidArgument("unknown WAL record tag");
  }
  ByteReader in(payload.data() + 1, payload.size() - 1);
  WalRecord out;
  GVEX_RETURN_NOT_OK(in.GetVarint64(&out.epoch));
  uint64_t num_views = 0;
  GVEX_RETURN_NOT_OK(in.GetCount(in.remaining(), &num_views));
  out.views.reserve(static_cast<size_t>(num_views));
  for (uint64_t i = 0; i < num_views; ++i) {
    ExplanationView v;
    GVEX_RETURN_NOT_OK(DecodeView(&in, &v));
    out.views.push_back(std::move(v));
  }
  if (!in.done()) {
    return Status::InvalidArgument("trailing bytes in WAL record");
  }
  *record = std::move(out);
  return Status::OK();
}

}  // namespace

std::string WalFileName() { return "wal.gvxw"; }

Result<WalReplay> ReplayWal(const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));

  if (bytes.size() < kStoreHeaderBytes) {
    // A crash between WAL creation and the header reaching disk leaves a
    // sub-header file that provably holds no records. Treat it as an
    // empty log with a torn tail (valid_bytes 0 makes the writer rewrite
    // a fresh header) instead of bricking recovery.
    WalReplay replay;
    replay.valid_bytes = 0;
    replay.torn_tail = true;
    replay.tail_error = "file shorter than the store header";
    return replay;
  }
  ByteReader in(bytes);
  GVEX_RETURN_NOT_OK(in.GetStoreHeader(StoreFileKind::kWal));

  WalReplay replay;
  replay.valid_bytes = kStoreHeaderBytes;
  while (!in.done()) {
    std::string payload;
    Status frame = in.GetFramedRecord(&payload);
    if (!frame.ok()) {
      // Truncated or checksum-broken tail: keep the valid prefix.
      replay.torn_tail = true;
      replay.tail_error = frame.message();
      break;
    }
    WalRecord record;
    Status parsed = DecodeWalRecord(payload, &record);
    if (!parsed.ok()) {
      // The frame was intact but the payload is not ours — treat like a
      // torn tail: nothing after it can be trusted to be in order.
      replay.torn_tail = true;
      replay.tail_error = parsed.message();
      break;
    }
    replay.records.push_back(std::move(record));
    replay.valid_bytes = bytes.size() - in.remaining();
  }
  return replay;
}

Result<WalStart> ReadWalStart(const std::string& path) {
  // The first record is bounded in practice but not in principle, so read
  // progressively larger prefixes until one frame parses (or the file ends).
  for (uint64_t budget = 1 << 16;; budget *= 4) {
    GVEX_ASSIGN_OR_RETURN(const std::string bytes,
                          ReadFileRange(path, 0, budget));
    const bool whole_file = bytes.size() < budget;

    WalStart start;
    if (bytes.size() < kStoreHeaderBytes) return start;  // sub-header file
    ByteReader in(bytes);
    GVEX_RETURN_NOT_OK(in.GetStoreHeader(StoreFileKind::kWal));
    std::string payload;
    if (in.GetFramedRecord(&payload).ok()) {
      WalRecord record;
      if (!DecodeWalRecord(payload, &record).ok()) return start;
      start.has_records = true;
      start.first_epoch = record.epoch;
      return start;
    }
    // Frame truncated: with the whole file in hand that is a torn first
    // record (no records); otherwise retry with a larger prefix.
    if (whole_file) return start;
  }
}

WalWriter::~WalWriter() {
  // A destructor cannot report a failed final sync; callers that can act
  // on it call Close() first.
  (void)Close();
}

Status WalWriter::Close() {
  if (!file_.is_open()) return Status::OK();
  Status synced = file_.Sync();
  Status closed = file_.Close();
  return synced.ok() ? closed : synced;
}

Status WalWriter::Open(const std::string& path, uint64_t truncate_to) {
  GVEX_RETURN_NOT_OK(Close());
  failed_ = false;
  unsynced_ = 0;
  bytes_ = 0;  // never leave a stale size behind an error return below
  path_ = path;

  auto existing = FileSize(path);
  const uint64_t size = existing.ok() ? existing.value() : 0;
  // Any failure below must leave the writer fully CLOSED (not half-open
  // with a stale size): Append guards only on the open file and failed_,
  // and a half-open writer would accept records at a bogus offset.
  Status st;
  if (!existing.ok() || size < kStoreHeaderBytes ||
      truncate_to < kStoreHeaderBytes) {
    // Fresh log (also the path for an unusably short file).
    std::string header;
    PutStoreHeader(&header, StoreFileKind::kWal);
    st = file_.Open(path, /*truncate=*/true);
    if (st.ok()) st = file_.Append(header);
    // An unchecked header fsync would let Open succeed while the header
    // may never reach disk — recovery would then read a torn header and
    // silently treat every acknowledged append as an empty log.
    if (st.ok()) st = file_.Sync();
    // A brand-new file is a directory-entry mutation; without a directory
    // fsync, power loss can leave acknowledged (file-fsynced) appends in a
    // file that no longer has a name.
    if (st.ok() && !existing.ok()) st = SyncParentDir(path);
    bytes_ = header.size();
  } else {
    st = file_.Open(path, /*truncate=*/false);
    // Drop a torn tail before appending resumes.
    if (st.ok() && truncate_to < size) st = file_.TruncateTo(truncate_to);
    bytes_ = std::min(truncate_to, size);
  }
  if (!st.ok()) {
    bytes_ = 0;
    (void)file_.Close();  // the error above is the one to report
  }
  return st;
}

void WalWriter::RestoreTo(uint64_t offset) {
  // A failed write may have left a partial frame in the file. Discard
  // everything past the last good offset so a later successful append is
  // never stranded behind torn bytes that replay would stop at.
  if (!file_.TruncateTo(offset).ok()) {
    failed_ = true;
    return;
  }
  bytes_ = offset;
  unsynced_ = 0;
}

Status WalWriter::Append(const WalRecord& record) {
  if (failed_) {
    return Status::FailedPrecondition(
        "WAL writer failed and could not roll back; reopen it");
  }
  if (!file_.is_open()) {
    return Status::FailedPrecondition("WAL is not open");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t start = bytes_;
  std::string framed;
  PutFramedRecord(&framed, EncodeWalRecord(record));
  // Below the sync_every threshold the fsync is deferred (a power failure
  // may lose the batch); the bytes are in the kernel either way, so a
  // process crash loses nothing.
  Status st = file_.Append(framed);
  if (st.ok()) {
    bytes_ += framed.size();
    if (++unsynced_ >= sync_every_) st = Sync();
  }
  if (!st.ok()) {
    RestoreTo(start);
    return st;
  }
  WalObs().append_seconds->ObserveSeconds(WalSecondsSince(t0));
  WalObs().appended_bytes->Add(framed.size());
  return Status::OK();
}

Status WalWriter::Sync() {
  if (failed_) {
    return Status::FailedPrecondition(
        "WAL writer failed and could not roll back; reopen it");
  }
  if (!file_.is_open()) {
    return Status::FailedPrecondition("WAL is not open");
  }
  const auto t0 = std::chrono::steady_clock::now();
  GVEX_RETURN_NOT_OK(file_.Sync());
  WalObs().fsync_seconds->ObserveSeconds(WalSecondsSince(t0));
  unsynced_ = 0;
  return Status::OK();
}

Status WalWriter::Reset() {
  // Deliberately usable with the file closed (and with failed_ latched):
  // callers only Reset when every logged record is covered by a snapshot,
  // so rewriting a fresh header is always safe — and it is the recovery
  // path for a writer that a failed rollback or reset left wedged.
  if (path_.empty()) {
    return Status::FailedPrecondition("WAL was never opened");
  }
  const std::string path = path_;
  const int sync_every = sync_every_;
  // Open rewrites the header over whatever the old handle left, so a
  // failed final sync of the old handle changes nothing.
  (void)Close();
  Status st = Open(path, 0);  // 0 forces the fresh-header path
  set_sync_every(sync_every);
  return st;
}

}  // namespace gvex
