// The failover oracle harness for WAL-shipping replication — the
// replication counterpart of chain_crash_test. Every suite pins the same
// invariant: a standby promoted after the primary dies answers
// bit-identically to an in-memory oracle holding exactly the admissions
// the promoted epoch acknowledges — or refuses to promote at all.
//
//   1. ENUMERATED KILL-POINTS: the primary is killed at every transport
//      operation (manifest, file chunk, CRC probe) and at byte
//      granularity mid-WAL-record — mid-record ship, post-ship pre-ack,
//      mid-snapshot sync, mid-compact. The promoted replica must land on
//      an epoch between its last validated floor and the primary's tip,
//      with oracle parity at that epoch.
//   2. TORN-TAIL RE-SHIP SWEEP: the shipped WAL is truncated at byte
//      offsets across record boundaries (mid-header, mid-payload,
//      mid-CRC); the applier must truncate to the valid prefix, count a
//      re-ship, never apply a partial record, and heal to the full tip
//      when the tail becomes available again.
//   3. DIVERGENCE INJECTION: forked WAL bytes, same-named snapshot files
//      with different bytes, and a primary behind the replica's
//      acknowledged epoch must each latch a permanent FAIL-STOP: SyncOnce
//      returns the same verdict forever and Promote() refuses.
//   4. SEEDED INTERLEAVER: admitter/saver/compactor threads race the
//      sync loop; no transient error may escalate to fail-stop, and the
//      drained, promoted replica must equal the primary bit-identically.
//      The one such race it hit only now and then, a manifest torn by a
//      racing compaction, is also pinned deterministically.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/replica_applier.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "store/recovery.h"
#include "store/replication.h"
#include "store/snapshot.h"
#include "store/store_test_util.h"
#include "store/wal.h"
#include "util/rng.h"

namespace gvex {
namespace {

using testing::ScratchDir;
using synthetic::VersionedView;

constexpr int kLabels = 8;

synthetic::SyntheticStore TinyStore(uint64_t seed) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kLabels;
  opt.graphs_per_label = 3;
  opt.patterns_per_label = 6;
  opt.min_nodes = 6;
  opt.max_nodes = 10;
  return synthetic::MakeSyntheticStore(seed, opt);
}

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> codes;
  codes.reserve(patterns.size());
  for (const Pattern& p : patterns) codes.push_back(p.canonical_code());
  return codes;
}

// Oracle parity: the promoted replica must answer every query kind
// bit-identically to the never-restarted oracle (epochs are not compared).
void ExpectOracleParity(ViewService* recovered, ViewService* oracle) {
  ASSERT_EQ(recovered->Labels(), oracle->Labels());
  for (int label : oracle->Labels()) {
    EXPECT_EQ(Codes(recovered->PatternsForLabel(label)),
              Codes(oracle->PatternsForLabel(label)))
        << "label " << label;
    EXPECT_EQ(Codes(recovered->DiscriminativePatterns(label)),
              Codes(oracle->DiscriminativePatterns(label)))
        << "label " << label;
    for (const Pattern& p : oracle->PatternsForLabel(label)) {
      EXPECT_EQ(recovered->GraphsWithPattern(label, p),
                oracle->GraphsWithPattern(label, p));
      EXPECT_EQ(recovered->LabelsOfPattern(p), oracle->LabelsOfPattern(p));
      EXPECT_EQ(recovered->DatabaseGraphsWithPattern(p),
                oracle->DatabaseGraphsWithPattern(p));
    }
  }
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), offset);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
  WriteFileBytes(path, bytes);
}

// Transport wrapper that kills the "primary" at an enumerated point: after
// `KillAfterOps(n)` successful operations, or — for byte-granularity kill
// points mid-record — after `KillAfterFetchBytes(n)` fetched payload bytes
// (the chunk that crosses the budget arrives as a PREFIX, like a TCP send
// cut mid-stream). Once killed, every later call fails.
class FaultyEndpoint : public ReplicationEndpoint {
 public:
  explicit FaultyEndpoint(std::unique_ptr<ReplicationEndpoint> inner)
      : inner_(std::move(inner)) {}

  void KillAfterOps(int ops) { op_budget_ = ops; }
  void KillAfterFetchBytes(uint64_t bytes) {
    byte_budget_ = static_cast<int64_t>(bytes);
  }
  bool killed() const { return killed_; }

  Result<ReplManifest> Manifest() override {
    Status ticket = Charge();
    if (!ticket.ok()) return ticket;
    return inner_->Manifest();
  }

  Result<std::string> Fetch(const std::string& name, uint64_t offset,
                            uint64_t max_len) override {
    Status ticket = Charge();
    if (!ticket.ok()) return ticket;
    auto bytes = inner_->Fetch(name, offset, max_len);
    if (!bytes.ok() || byte_budget_ < 0) return bytes;
    if (static_cast<int64_t>(bytes.value().size()) > byte_budget_) {
      std::string partial =
          bytes.value().substr(0, static_cast<size_t>(byte_budget_));
      byte_budget_ = 0;
      killed_ = true;
      if (partial.empty()) return Status::IOError("primary killed mid-ship");
      return partial;
    }
    byte_budget_ -= static_cast<int64_t>(bytes.value().size());
    return bytes;
  }

  Result<uint32_t> PrefixCrc(const std::string& name,
                             uint64_t bytes) override {
    Status ticket = Charge();
    if (!ticket.ok()) return ticket;
    return inner_->PrefixCrc(name, bytes);
  }

 private:
  Status Charge() {
    if (killed_) return Status::IOError("primary killed");
    if (op_budget_ >= 0 && ops_used_ >= op_budget_) {
      killed_ = true;
      return Status::IOError("primary killed");
    }
    ++ops_used_;
    return Status::OK();
  }

  std::unique_ptr<ReplicationEndpoint> inner_;
  int op_budget_ = -1;       ///< ops allowed to succeed (-1 = unlimited)
  int64_t byte_budget_ = -1; ///< fetch payload bytes allowed (-1 = unlimited)
  int ops_used_ = 0;
  bool killed_ = false;
};

// Transport whose next manifest is replaced, once, by `torn`: the way a
// Compact racing ReplicationSource::Manifest tears a live one (the file
// list from before the compaction, the WAL from after it).
class TornManifestEndpoint : public ReplicationEndpoint {
 public:
  explicit TornManifestEndpoint(std::unique_ptr<ReplicationEndpoint> inner)
      : inner_(std::move(inner)) {}

  void TearNext(ReplManifest torn) {
    torn_ = std::move(torn);
    tear_ = true;
  }

  Result<ReplManifest> Manifest() override {
    if (!tear_) return inner_->Manifest();
    tear_ = false;
    return torn_;
  }
  Result<std::string> Fetch(const std::string& name, uint64_t offset,
                            uint64_t max_len) override {
    return inner_->Fetch(name, offset, max_len);
  }
  Result<uint32_t> PrefixCrc(const std::string& name,
                             uint64_t bytes) override {
    return inner_->PrefixCrc(name, bytes);
  }

 private:
  std::unique_ptr<ReplicationEndpoint> inner_;
  ReplManifest torn_;
  bool tear_ = false;
};

class ReplicationOracleTest : public ::testing::Test {
 protected:
  void SetUp() override { store_ = TinyStore(91); }

  // The i-th acknowledged admission (one view per epoch, deterministic).
  ExplanationView Admission(int i) const {
    return VersionedView(store_, i % kLabels, i / kLabels);
  }

  // Parity against the oracle holding exactly admissions [0, epoch).
  void ExpectParityAtEpoch(ViewService* recovered, uint64_t epoch) {
    ViewService oracle(&store_.db);
    for (uint64_t i = 0; i < epoch; ++i) {
      ASSERT_TRUE(oracle.AdmitView(Admission(static_cast<int>(i))).ok());
    }
    ExpectOracleParity(recovered, &oracle);
  }

  std::unique_ptr<ViewService> OpenPrimary(const std::string& dir) {
    auto opened = ViewService::Open(dir, &store_.db, {});
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  synthetic::SyntheticStore store_;
};

// POST-SHIP PRE-ACK: the full ship completed, then the primary died before
// any further admission. Promotion must reach exactly the shipped tip,
// answer bit-identically, and leave a real writable primary behind.
TEST_F(ReplicationOracleTest, CleanShipPromotesBitIdenticalAndWritable) {
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  auto primary = OpenPrimary(primary_dir.path());
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
  }
  ASSERT_TRUE(primary->Save(SaveKind::kFull).ok());  // snapshot-2
  for (int i = 2; i < 5; ++i) {                      // epochs 3..5 WAL-only
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
  }
  ViewService* primary_raw = primary.get();
  auto applier_or = ReplicaApplier::Open(
      replica_dir.path(), &store_.db,
      std::make_unique<LocalEndpoint>(
          primary_dir.path(), [primary_raw] { return primary_raw->epoch(); }));
  ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
  auto applier = std::move(applier_or).value();

  ASSERT_TRUE(applier->SyncOnce().ok());
  EXPECT_EQ(applier->service()->epoch(), 5u);
  EXPECT_EQ(applier->lag().epochs, 0u);
  EXPECT_EQ(applier->lag().bytes, 0u);
  EXPECT_TRUE(applier->service()->read_only());
  ExpectParityAtEpoch(applier->service(), 5);  // replica serves while standby

  primary.reset();  // the primary dies post-ship
  auto promoted = applier->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), 5u);
  EXPECT_TRUE(applier->promoted());
  EXPECT_FALSE(applier->service()->read_only());
  ExpectParityAtEpoch(applier->service(), 5);
  // The promoted store is a primary in every sense: it admits and epochs
  // keep advancing from the acknowledged tip.
  ASSERT_TRUE(applier->service()->AdmitView(Admission(5)).ok());
  EXPECT_EQ(applier->service()->epoch(), 6u);
}

// ENUMERATED OP KILL-POINTS, including mid-snapshot sync: the replica has
// a validated floor, the primary then writes a snapshot and more WAL, and
// dies after op k of the following sync — for every k. Promotion must
// never land below the floor, never above the tip, and always answer with
// oracle parity at whatever epoch it reached.
TEST_F(ReplicationOracleTest, EnumeratedOpKillPointsNeverLoseAcknowledgedState) {
  constexpr uint64_t kFloor = 3;
  constexpr uint64_t kTip = 6;
  bool completed = false;
  int cap = 0;
  for (; !completed; ++cap) {
    ASSERT_LT(cap, 400) << "kill-point enumeration did not terminate";
    ScratchDir primary_dir, replica_dir;
    ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
    auto primary = OpenPrimary(primary_dir.path());
    ASSERT_NE(primary, nullptr);
    for (uint64_t i = 0; i < kFloor; ++i) {
      ASSERT_TRUE(primary->AdmitView(Admission(static_cast<int>(i))).ok());
    }
    ViewService* primary_raw = primary.get();
    auto faulty = std::make_unique<FaultyEndpoint>(
        std::make_unique<LocalEndpoint>(primary_dir.path(), [primary_raw] {
          return primary_raw->epoch();
        }));
    FaultyEndpoint* faulty_raw = faulty.get();
    ReplicaApplierOptions ropts;
    ropts.fetch_chunk_bytes = 8192;  // snapshots ship in several chunks
    auto applier_or = ReplicaApplier::Open(replica_dir.path(), &store_.db,
                                           std::move(faulty), {}, ropts);
    ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
    auto applier = std::move(applier_or).value();
    ASSERT_TRUE(applier->SyncOnce().ok());  // clean sync to the floor
    ASSERT_EQ(applier->service()->epoch(), kFloor);

    // The primary moves on: a snapshot plus three more admissions...
    ASSERT_TRUE(primary->Save(SaveKind::kFull).ok());
    for (uint64_t i = kFloor; i < kTip; ++i) {
      ASSERT_TRUE(primary->AdmitView(Admission(static_cast<int>(i))).ok());
    }
    // ...and dies after op `cap` of the next sync.
    faulty_raw->KillAfterOps(cap);
    const Status sync = applier->SyncOnce();
    completed = sync.ok() && !faulty_raw->killed();
    // A dead primary is an outage, never a divergence verdict.
    ASSERT_TRUE(applier->failstop_status().ok())
        << "cap " << cap << ": " << applier->failstop_status().ToString();
    primary.reset();

    auto promoted = applier->Promote();
    ASSERT_TRUE(promoted.ok())
        << "cap " << cap << ": " << promoted.status().ToString();
    EXPECT_GE(promoted.value(), kFloor) << "cap " << cap;
    EXPECT_LE(promoted.value(), kTip) << "cap " << cap;
    if (completed) {
      EXPECT_EQ(promoted.value(), kTip);
    }
    ExpectParityAtEpoch(applier->service(), promoted.value());
  }
  // The enumeration must have exercised real mid-sync kill points.
  EXPECT_GT(cap, 3);
}

// BYTE-GRANULARITY KILL-POINTS MID-RECORD SHIP: the transport dies after
// exactly N payload bytes of the WAL ship, for N at and around every
// record boundary (mid-frame-header, mid-payload, mid-CRC) plus seeded
// offsets. The promoted epoch must be exactly the number of records whose
// bytes fully arrived — a partial record is never applied.
TEST_F(ReplicationOracleTest, MidRecordShipKillPointsLandOnRecordBoundaries) {
  constexpr int kTip = 4;
  ScratchDir primary_dir;
  ASSERT_TRUE(primary_dir.ok());
  auto primary = OpenPrimary(primary_dir.path());
  ASSERT_NE(primary, nullptr);
  const std::string wal_path = primary_dir.path() + "/" + WalFileName();
  std::vector<uint64_t> boundary;  // boundary[k] = WAL bytes after record k
  boundary.push_back(FileSize(wal_path));  // header only
  ASSERT_GT(boundary[0], 0u);
  for (int i = 0; i < kTip; ++i) {
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
    boundary.push_back(FileSize(wal_path));
    ASSERT_GT(boundary.back(), boundary[boundary.size() - 2]);
  }

  std::set<uint64_t> kill_points;
  Rng rng(4242);
  for (int k = 1; k <= kTip; ++k) {
    const uint64_t lo = boundary[static_cast<size_t>(k) - 1];
    const uint64_t hi = boundary[static_cast<size_t>(k)];
    kill_points.insert(lo);          // clean boundary
    kill_points.insert(lo + 1);      // mid-frame-header (length varint)
    kill_points.insert((lo + hi) / 2);  // mid-payload
    kill_points.insert(hi - 2);      // mid-CRC
    kill_points.insert(hi);          // clean boundary
    for (int s = 0; s < 4; ++s) {    // seeded offsets inside the record
      kill_points.insert(lo + 1 + rng.NextUint(hi - lo - 1));
    }
  }

  ViewService* primary_raw = primary.get();
  for (const uint64_t point : kill_points) {
    ScratchDir replica_dir;
    ASSERT_TRUE(replica_dir.ok());
    auto faulty = std::make_unique<FaultyEndpoint>(
        std::make_unique<LocalEndpoint>(primary_dir.path(), [primary_raw] {
          return primary_raw->epoch();
        }));
    faulty->KillAfterFetchBytes(point);
    auto applier_or = ReplicaApplier::Open(replica_dir.path(), &store_.db,
                                           std::move(faulty));
    ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
    auto applier = std::move(applier_or).value();
    (void)applier->SyncOnce();
    ASSERT_TRUE(applier->failstop_status().ok()) << "kill point " << point;

    uint64_t expected = 0;
    while (expected < static_cast<uint64_t>(kTip) &&
           boundary[static_cast<size_t>(expected) + 1] <= point) {
      ++expected;
    }
    auto promoted = applier->Promote();
    ASSERT_TRUE(promoted.ok())
        << "kill point " << point << ": " << promoted.status().ToString();
    EXPECT_EQ(promoted.value(), expected) << "kill point " << point;
    ExpectParityAtEpoch(applier->service(), promoted.value());
  }
}

// MID-COMPACT KILL-POINTS: the primary compacts (snapshot + WAL reset = a
// new WAL generation) and dies after op k of the replica's next sync. The
// replica must treat the generation change as benign, never regress below
// its floor, and reach the compacted tip when the sync completes.
TEST_F(ReplicationOracleTest, MidCompactKillPointsResyncWithoutRegression) {
  constexpr uint64_t kFloor = 3;
  constexpr uint64_t kTip = 4;
  bool completed = false;
  for (int cap = 0; !completed; ++cap) {
    ASSERT_LT(cap, 400) << "kill-point enumeration did not terminate";
    ScratchDir primary_dir, replica_dir;
    ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
    auto primary = OpenPrimary(primary_dir.path());
    ASSERT_NE(primary, nullptr);
    for (uint64_t i = 0; i < kFloor; ++i) {
      ASSERT_TRUE(primary->AdmitView(Admission(static_cast<int>(i))).ok());
    }
    ViewService* primary_raw = primary.get();
    auto faulty = std::make_unique<FaultyEndpoint>(
        std::make_unique<LocalEndpoint>(primary_dir.path(), [primary_raw] {
          return primary_raw->epoch();
        }));
    FaultyEndpoint* faulty_raw = faulty.get();
    ReplicaApplierOptions ropts;
    ropts.fetch_chunk_bytes = 8192;
    auto applier_or = ReplicaApplier::Open(replica_dir.path(), &store_.db,
                                           std::move(faulty), {}, ropts);
    ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
    auto applier = std::move(applier_or).value();
    ASSERT_TRUE(applier->SyncOnce().ok());
    ASSERT_EQ(applier->service()->epoch(), kFloor);

    ASSERT_TRUE(primary->AdmitView(Admission(static_cast<int>(kFloor))).ok());
    ASSERT_TRUE(primary->Compact().ok());  // snapshot-4, WAL generation reset

    faulty_raw->KillAfterOps(cap);
    const Status sync = applier->SyncOnce();
    completed = sync.ok() && !faulty_raw->killed();
    ASSERT_TRUE(applier->failstop_status().ok())
        << "cap " << cap << ": " << applier->failstop_status().ToString();
    primary.reset();

    auto promoted = applier->Promote();
    ASSERT_TRUE(promoted.ok())
        << "cap " << cap << ": " << promoted.status().ToString();
    EXPECT_GE(promoted.value(), kFloor) << "cap " << cap;
    EXPECT_LE(promoted.value(), kTip) << "cap " << cap;
    if (completed) {
      EXPECT_EQ(promoted.value(), kTip);
      EXPECT_GE(applier->resyncs(), 1u);  // the generation change was seen
      EXPECT_EQ(applier->lag().epochs, 0u);
    }
    ExpectParityAtEpoch(applier->service(), promoted.value());
  }
}

// TORN-TAIL RE-SHIP SWEEP (the ReplayWal fuzz over shipped-record
// boundaries): the primary's WAL is presented truncated at byte offsets
// across every record — mid-frame-header, mid-payload, mid-CRC, clean
// boundaries, plus seeded offsets. The applier must apply exactly the
// records before the tear, truncate the torn bytes, count a re-ship, and
// catch up to the tip once the full file is available again.
TEST_F(ReplicationOracleTest, TornShippedTailSweepTruncatesAndReships) {
  constexpr int kTip = 3;
  std::vector<uint64_t> boundary;
  std::string full_wal;
  ScratchDir source_dir;  // the "primary" directory the sweep rewrites
  ASSERT_TRUE(source_dir.ok());
  {
    auto primary = OpenPrimary(source_dir.path());
    ASSERT_NE(primary, nullptr);
    const std::string wal_path = source_dir.path() + "/" + WalFileName();
    boundary.push_back(FileSize(wal_path));
    for (int i = 0; i < kTip; ++i) {
      ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
      boundary.push_back(FileSize(wal_path));
    }
  }  // close the primary; the WAL bytes are now fixed
  const std::string wal_path = source_dir.path() + "/" + WalFileName();
  full_wal = ReadFileBytes(wal_path);
  ASSERT_EQ(full_wal.size(), boundary.back());

  std::set<uint64_t> tear_points;
  Rng rng(977);
  for (int k = 1; k <= kTip; ++k) {
    const uint64_t lo = boundary[static_cast<size_t>(k) - 1];
    const uint64_t hi = boundary[static_cast<size_t>(k)];
    tear_points.insert(lo);
    tear_points.insert(lo + 1);
    tear_points.insert(lo + 2);
    tear_points.insert((lo + hi) / 2);
    tear_points.insert(hi - 3);
    tear_points.insert(hi - 2);
    tear_points.insert(hi - 1);
    for (int s = 0; s < 6; ++s) {
      tear_points.insert(lo + 1 + rng.NextUint(hi - lo - 1));
    }
  }

  for (const uint64_t point : tear_points) {
    const bool at_boundary =
        std::find(boundary.begin(), boundary.end(), point) != boundary.end();
    WriteFileBytes(wal_path, full_wal.substr(0, point));
    ScratchDir replica_dir;
    ASSERT_TRUE(replica_dir.ok());
    auto applier_or = ReplicaApplier::Open(
        replica_dir.path(), &store_.db,
        std::make_unique<LocalEndpoint>(source_dir.path()));
    ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
    auto applier = std::move(applier_or).value();

    // A torn tail is NOT an error: the valid prefix applies, the torn
    // bytes are truncated and counted as needing a re-ship.
    ASSERT_TRUE(applier->SyncOnce().ok()) << "tear point " << point;
    ASSERT_TRUE(applier->failstop_status().ok()) << "tear point " << point;
    uint64_t expected = 0;
    while (expected < static_cast<uint64_t>(kTip) &&
           boundary[static_cast<size_t>(expected) + 1] <= point) {
      ++expected;
    }
    EXPECT_EQ(applier->service()->epoch(), expected)
        << "tear point " << point;
    EXPECT_EQ(applier->reships(), at_boundary ? 0u : 1u)
        << "tear point " << point;

    // The tail becomes available again (the primary finished its append):
    // the truncated bytes are re-shipped and the replica reaches the tip.
    WriteFileBytes(wal_path, full_wal);
    ASSERT_TRUE(applier->SyncOnce().ok()) << "tear point " << point;
    EXPECT_EQ(applier->service()->epoch(), static_cast<uint64_t>(kTip));
    ExpectParityAtEpoch(applier->service(), static_cast<uint64_t>(kTip));
  }
}

// DIVERGENCE: forked WAL bytes under an unchanged generation. The fail-
// stop must latch — every later SyncOnce returns the same verdict even
// after the bytes are "fixed", Promote() refuses, and the replica keeps
// serving its last validated state read-only.
TEST_F(ReplicationOracleTest, ForkedWalBytesFailStopAndLatch) {
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  auto primary = OpenPrimary(primary_dir.path());
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
  }
  primary.reset();  // quiesce: the fork below is the only writer

  auto applier_or = ReplicaApplier::Open(
      replica_dir.path(), &store_.db,
      std::make_unique<LocalEndpoint>(primary_dir.path()));
  ASSERT_TRUE(applier_or.ok());
  auto applier = std::move(applier_or).value();
  ASSERT_TRUE(applier->SyncOnce().ok());
  ASSERT_EQ(applier->service()->epoch(), 3u);

  // Fork the primary's history: a byte of its LAST record changes (the
  // first record stays intact, so the WAL generation looks unchanged).
  const std::string wal_path = primary_dir.path() + "/" + WalFileName();
  const std::string pristine = ReadFileBytes(wal_path);
  FlipByte(wal_path, FileSize(wal_path) - 3);

  const Status verdict = applier->SyncOnce();
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.ToString().find("divergence"), std::string::npos)
      << verdict.ToString();
  EXPECT_FALSE(applier->failstop_status().ok());

  // Latched: the verdict survives even a "repaired" primary.
  WriteFileBytes(wal_path, pristine);
  const Status again = applier->SyncOnce();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.ToString(), verdict.ToString());

  auto promoted = applier->Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_TRUE(promoted.status().IsFailedPrecondition());
  EXPECT_NE(promoted.status().ToString().find("fail-stop"),
            std::string::npos);
  // The replica still answers reads at its last validated state.
  EXPECT_EQ(applier->service()->epoch(), 3u);
  EXPECT_TRUE(applier->service()->read_only());
  ExpectParityAtEpoch(applier->service(), 3);
}

// DIVERGENCE: a same-named snapshot whose bytes differ between replica
// and primary can only mean two forked histories — never overwritten.
TEST_F(ReplicationOracleTest, SameNameSnapshotDivergenceFailsStop) {
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  auto primary = OpenPrimary(primary_dir.path());
  ASSERT_NE(primary, nullptr);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
  }
  ASSERT_TRUE(primary->Save(SaveKind::kFull).ok());  // snapshot-2
  primary.reset();

  auto applier_or = ReplicaApplier::Open(
      replica_dir.path(), &store_.db,
      std::make_unique<LocalEndpoint>(primary_dir.path()));
  ASSERT_TRUE(applier_or.ok());
  auto applier = std::move(applier_or).value();
  ASSERT_TRUE(applier->SyncOnce().ok());
  ASSERT_EQ(applier->service()->epoch(), 2u);

  // The primary's snapshot-2 silently changes under its name (size kept).
  FlipByte(primary_dir.path() + "/" + SnapshotFileName(2), 20);

  const Status verdict = applier->SyncOnce();
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.ToString().find("divergence"), std::string::npos)
      << verdict.ToString();
  EXPECT_FALSE(applier->failstop_status().ok());
  EXPECT_FALSE(applier->Promote().ok());
}

// DIVERGENCE: the primary ends up BEHIND the replica's acknowledged epoch
// (it lost acknowledged WAL records). Following it would regress
// acknowledged state — fail-stop, with the lost tail counted as a re-ship
// attempt that the recovery verdict then vetoes.
TEST_F(ReplicationOracleTest, PrimaryBehindReplicaRegressionFailsStop) {
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  std::vector<uint64_t> boundary;
  {
    auto primary = OpenPrimary(primary_dir.path());
    ASSERT_NE(primary, nullptr);
    const std::string wal_path = primary_dir.path() + "/" + WalFileName();
    boundary.push_back(FileSize(wal_path));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
      boundary.push_back(FileSize(wal_path));
    }
  }

  auto applier_or = ReplicaApplier::Open(
      replica_dir.path(), &store_.db,
      std::make_unique<LocalEndpoint>(primary_dir.path()));
  ASSERT_TRUE(applier_or.ok());
  auto applier = std::move(applier_or).value();
  ASSERT_TRUE(applier->SyncOnce().ok());
  ASSERT_EQ(applier->service()->epoch(), 4u);

  // The primary "restarts" having lost epochs 3 and 4 — its WAL is a
  // genuine byte prefix, just shorter than acknowledged state.
  const std::string wal_path = primary_dir.path() + "/" + WalFileName();
  const std::string full = ReadFileBytes(wal_path);
  WriteFileBytes(wal_path, full.substr(0, boundary[2]));

  const Status verdict = applier->SyncOnce();
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.ToString().find("regress"), std::string::npos)
      << verdict.ToString();
  EXPECT_FALSE(applier->failstop_status().ok());
  EXPECT_EQ(applier->reships(), 1u);

  // Latched even after the primary's tail "reappears".
  WriteFileBytes(wal_path, full);
  ASSERT_FALSE(applier->SyncOnce().ok());
  auto promoted = applier->Promote();
  ASSERT_FALSE(promoted.ok());
  EXPECT_TRUE(promoted.status().IsFailedPrecondition());
  // In-memory acknowledged state is untouched by the fail-stop.
  EXPECT_EQ(applier->service()->epoch(), 4u);
  ExpectParityAtEpoch(applier->service(), 4);
}

// COMPACTION-TORN MANIFEST: a manifest listing the files from before a
// Compact and the WAL from after it makes the mirrored verdict older than
// the replica's epoch. That is a race, not lost state: the pass retries
// without publishing or fail-stopping, and the next pass reaches the
// compacted tip. (The seeded interleaver below hit this now and then.)
TEST_F(ReplicationOracleTest, CompactionTornManifestRetriesWithoutFailStop) {
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  // The tear falls between the WAL reset and the pruning of snapshot-2,
  // so snapshot-2 must still be fetchable; keep it.
  ViewServiceOptions popts;
  popts.store.prune_snapshots = false;
  auto opened = ViewService::Open(primary_dir.path(), &store_.db, popts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto primary = std::move(opened).value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(primary->AdmitView(Admission(i)).ok());
  }
  ASSERT_TRUE(primary->Save(SaveKind::kFull).ok());  // snapshot-2
  ASSERT_TRUE(primary->AdmitView(Admission(2)).ok());  // epoch 3, WAL only
  ViewService* primary_raw = primary.get();
  auto epoch_of = [primary_raw] { return primary_raw->epoch(); };
  auto torn = std::make_unique<TornManifestEndpoint>(
      std::make_unique<LocalEndpoint>(primary_dir.path(), epoch_of));
  TornManifestEndpoint* torn_raw = torn.get();
  auto applier_or =
      ReplicaApplier::Open(replica_dir.path(), &store_.db, std::move(torn));
  ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
  auto applier = std::move(applier_or).value();
  ASSERT_TRUE(applier->SyncOnce().ok());
  ASSERT_EQ(applier->service()->epoch(), 3u);

  ReplicationSource source(primary_dir.path(), epoch_of);
  auto before = source.Manifest();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(primary->Compact().ok());  // snapshot-3, WAL generation reset
  auto after = source.Manifest();
  ASSERT_TRUE(after.ok());
  ReplManifest tear = after.value();
  tear.files = before.value().files;
  torn_raw->TearNext(tear);

  EXPECT_FALSE(applier->SyncOnce().ok());
  ASSERT_TRUE(applier->failstop_status().ok())
      << applier->failstop_status().ToString();
  EXPECT_EQ(applier->service()->epoch(), 3u);

  ASSERT_TRUE(applier->SyncOnce().ok());
  EXPECT_EQ(applier->service()->epoch(), 3u);
  EXPECT_EQ(applier->lag().epochs, 0u);
  primary.reset();
  auto promoted = applier->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), 3u);
  ExpectParityAtEpoch(applier->service(), 3);
}

// SEEDED INTERLEAVER: admitters, a saver/compactor, and the shipping loop
// race freely. No benign race (mid-compact manifests, torn live tails,
// pruned files) may escalate to fail-stop; the drained replica converges
// to the primary and promotes bit-identically.
TEST_F(ReplicationOracleTest, SeededInterleaverConvergesAndPromotes) {
  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  ScratchDir primary_dir, replica_dir;
  ASSERT_TRUE(primary_dir.ok() && replica_dir.ok());
  ViewServiceOptions popts;
  popts.store.delta_max_chain = 4;  // exercise auto chain folding
  auto opened = ViewService::Open(primary_dir.path(), &store_.db, popts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto primary = std::move(opened).value();
  ViewService* primary_raw = primary.get();

  auto applier_or = ReplicaApplier::Open(
      replica_dir.path(), &store_.db,
      std::make_unique<LocalEndpoint>(
          primary_dir.path(), [primary_raw] { return primary_raw->epoch(); }));
  ASSERT_TRUE(applier_or.ok());
  auto applier = std::move(applier_or).value();

  std::atomic<bool> done{false};
  std::atomic<int> admitters_left{kThreads};
  std::vector<std::thread> admitters;
  for (int t = 0; t < kThreads; ++t) {
    admitters.emplace_back([&, t] {
      Rng rng(100u + static_cast<uint64_t>(t));
      for (int v = 0; v < kIters; ++v) {
        auto admitted = primary_raw->AdmitView(VersionedView(store_, t, v));
        ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
        if (rng.NextUint(8) == 0) std::this_thread::yield();
      }
      admitters_left.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread saver([&] {
    Rng rng(55);
    while (!done.load(std::memory_order_acquire)) {
      switch (rng.NextUint(3)) {
        case 0:
          (void)primary_raw->Save(SaveKind::kAuto);
          break;
        case 1:
          (void)primary_raw->Save(SaveKind::kDelta);
          break;
        default:
          (void)primary_raw->Compact();
          break;
      }
      std::this_thread::yield();
    }
  });

  // The shipping loop races everything above until every admitter is done.
  // Transient errors (mid-compact manifests, torn live tails) are
  // expected; a fail-stop or an epoch regression is a harness failure.
  uint64_t last_epoch = 0;
  while (admitters_left.load(std::memory_order_acquire) > 0) {
    (void)applier->SyncOnce();
    ASSERT_TRUE(applier->failstop_status().ok())
        << applier->failstop_status().ToString();
    const uint64_t now = applier->service()->epoch();
    ASSERT_GE(now, last_epoch);  // published epochs are monotone
    last_epoch = now;
    if (now > 0) {
      // The standby serves reads concurrently with being replicated into.
      ASSERT_FALSE(applier->service()->Labels().empty());
    }
  }

  for (std::thread& th : admitters) th.join();
  done.store(true, std::memory_order_release);
  saver.join();

  // Drain: with the primary quiescent, shipping must converge to zero lag.
  bool converged = false;
  for (int i = 0; i < 50 && !converged; ++i) {
    const Status sync = applier->SyncOnce();
    ASSERT_TRUE(applier->failstop_status().ok())
        << applier->failstop_status().ToString();
    converged = sync.ok() &&
                applier->service()->epoch() == primary_raw->epoch() &&
                applier->lag().epochs == 0;
  }
  ASSERT_TRUE(converged);
  ExpectOracleParity(applier->service(), primary_raw);

  auto promoted = applier->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), primary_raw->epoch());
  ExpectOracleParity(applier->service(), primary_raw);
  // Both sides are now writable primaries of their own directories.
  ASSERT_TRUE(applier->service()
                  ->AdmitView(VersionedView(store_, 0, kIters))
                  .ok());
}

}  // namespace
}  // namespace gvex
