// Kill-and-restart recovery for the durable ViewService (src/store/): the
// acceptance suite for warm-start recovery. Views are admitted over a
// durable service, the process state is dropped (the unique_ptr is the
// process), Open(dir) recovers snapshot + WAL, and a randomized oracle
// parity sweep asserts the recovered service answers BIT-IDENTICALLY to a
// reference service that never restarted — across snapshot-only,
// WAL-only, snapshot+WAL, post-Compact, and torn-tail states.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "store/snapshot.h"
#include "store/store_test_util.h"
#include "store/wal.h"
#include "util/rng.h"

namespace gvex {
namespace {

using testing::ScratchDir;

// Oracle parity: every query kind, tier patterns + random probes (indexed
// and fallback paths), single queries and a batch — all bit-identical.
void ExpectParity(ViewService* recovered, ViewService* reference,
                  const synthetic::SyntheticStore& store, uint64_t seed) {
  ASSERT_EQ(recovered->epoch(), reference->epoch());
  ASSERT_EQ(recovered->Labels(), reference->Labels());

  std::vector<Pattern> probes;
  for (const ExplanationView& v : store.views) {
    probes.insert(probes.end(), v.patterns.begin(), v.patterns.end());
  }
  Rng rng(seed);
  for (int i = 0; i < 25; ++i) {
    const Graph& g = store.db.graph(static_cast<int>(
        rng.NextUint(static_cast<uint64_t>(store.db.size()))));
    probes.push_back(synthetic::RandomPatternFrom(g, &rng, 1, 5));
  }

  std::vector<ViewQuery> batch;
  for (int label : reference->Labels()) {
    const auto a = recovered->PatternsForLabel(label);
    const auto b = reference->PatternsForLabel(label);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].canonical_code(), b[i].canonical_code());
    }
    const auto da = recovered->DiscriminativePatterns(label);
    const auto db = reference->DiscriminativePatterns(label);
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].canonical_code(), db[i].canonical_code());
    }
    ViewQuery q;
    q.kind = QueryKind::kDiscriminativePatterns;
    q.label = label;
    batch.push_back(q);
  }
  for (const Pattern& p : probes) {
    EXPECT_EQ(recovered->LabelsOfPattern(p), reference->LabelsOfPattern(p));
    EXPECT_EQ(recovered->DatabaseGraphsWithPattern(p),
              reference->DatabaseGraphsWithPattern(p));
    for (int label : reference->Labels()) {
      EXPECT_EQ(recovered->GraphsWithPattern(label, p),
                reference->GraphsWithPattern(label, p));
    }
    ViewQuery q;
    q.kind = QueryKind::kLabelsOfPattern;
    q.pattern = p;
    batch.push_back(q);
  }
  const auto ra = recovered->ExecuteBatch(batch, 2);
  const auto rb = reference->ExecuteBatch(batch, 2);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].ids, rb[i].ids) << "batch slot " << i;
    EXPECT_EQ(ra[i].patterns.size(), rb[i].patterns.size());
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(dir_.ok());
    synthetic::SyntheticStoreOptions opt;
    opt.num_labels = 4;
    opt.graphs_per_label = 5;
    opt.patterns_per_label = 8;
    store_ = synthetic::MakeSyntheticStore(61, opt);
  }

  std::unique_ptr<ViewService> OpenDurable(
      ViewServiceOptions options = {}) {
    auto opened = ViewService::Open(dir_.path(), &store_.db, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  ScratchDir dir_;
  synthetic::SyntheticStore store_;
};

TEST_F(RecoveryTest, EmptyDirectoryOpensAsEpochZero) {
  auto service = OpenDurable();
  ASSERT_NE(service, nullptr);
  EXPECT_TRUE(service->durable());
  EXPECT_EQ(service->store_dir(), dir_.path());
  EXPECT_EQ(service->epoch(), 0u);
  EXPECT_TRUE(service->Labels().empty());
}

// One writer per store directory: a second Open while the first service is
// live (e.g. an "offline" compaction racing a server) must fail fast
// instead of truncating the WAL under the live writer's feet.
TEST_F(RecoveryTest, SecondOpenOnALiveStoreFailsFast) {
  auto first = OpenDurable();
  ASSERT_NE(first, nullptr);
  auto second = ViewService::Open(dir_.path(), &store_.db, {});
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition())
      << second.status().ToString();
  // Closing the first service releases the lock.
  first.reset();
  auto reopened = OpenDurable();
  EXPECT_NE(reopened, nullptr);
}

TEST_F(RecoveryTest, InMemoryServiceRefusesSaveAndCompact) {
  ViewService service(&store_.db);
  EXPECT_FALSE(service.durable());
  EXPECT_TRUE(service.Save().status().IsFailedPrecondition());
  EXPECT_TRUE(service.Compact().status().IsFailedPrecondition());
  EXPECT_EQ(service.store_dir(), "");
}

// The headline acceptance test: admit N views, kill, Open, oracle parity.
TEST_F(RecoveryTest, KillAndRestartRecoversFromWalOnly) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (const ExplanationView& v : store_.views) {
      ASSERT_TRUE(durable->AdmitView(v).ok());
      ASSERT_TRUE(reference.AdmitView(v).ok());
    }
  }  // drop the process state — nothing was ever Save()d

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1001);
}

TEST_F(RecoveryTest, KillAndRestartRecoversSnapshotPlusWal) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    // Half the views reach a saved snapshot...
    for (size_t i = 0; i < store_.views.size() / 2; ++i) {
      ASSERT_TRUE(durable->AdmitView(store_.views[i]).ok());
      ASSERT_TRUE(reference.AdmitView(store_.views[i]).ok());
    }
    auto saved = durable->Save();
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(saved.value().epoch, durable->epoch());
    EXPECT_FALSE(saved.value().delta);  // no base yet: kAuto goes full
    // ...the rest only the WAL.
    for (size_t i = store_.views.size() / 2; i < store_.views.size(); ++i) {
      ASSERT_TRUE(durable->AdmitView(store_.views[i]).ok());
      ASSERT_TRUE(reference.AdmitView(store_.views[i]).ok());
    }
  }

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1002);
}

TEST_F(RecoveryTest, CompactFoldsWalAndStaysBitIdentical) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (const ExplanationView& v : store_.views) {
      ASSERT_TRUE(durable->AdmitView(v).ok());
      ASSERT_TRUE(reference.AdmitView(v).ok());
    }
    auto compacted = durable->Compact();
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(compacted.value(), static_cast<uint64_t>(store_.views.size()));
    EXPECT_EQ(durable->stats().last_compact_error, "");
  }
  // After compaction the WAL is empty and exactly one snapshot remains.
  auto replay = ReplayWal(dir_.File(WalFileName()));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  auto epochs = ListSnapshotEpochs(dir_.path());
  ASSERT_TRUE(epochs.ok());
  ASSERT_EQ(epochs.value().size(), 1u);
  EXPECT_EQ(epochs.value()[0], static_cast<uint64_t>(store_.views.size()));

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1003);

  // Admissions keep working after recovery, durably.
  ExplanationView extra = store_.views[0];
  extra.label = 99;
  ASSERT_TRUE(recovered->AdmitView(extra).ok());
  ASSERT_TRUE(reference.AdmitView(extra).ok());
  recovered.reset();
  recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1004);
}

TEST_F(RecoveryTest, ReAdmittedLabelRecoversToLastVersion) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(reference.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save().ok());
    // Replace label 0's view after the snapshot: WAL must win on replay.
    ExplanationView replacement = store_.views[1];
    replacement.label = store_.views[0].label;
    ASSERT_TRUE(durable->AdmitView(replacement).ok());
    ASSERT_TRUE(reference.AdmitView(replacement).ok());
  }
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1005);
}

TEST_F(RecoveryTest, TornWalTailRecoversThePrefix) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (size_t i = 0; i + 1 < store_.views.size(); ++i) {
      ASSERT_TRUE(durable->AdmitView(store_.views[i]).ok());
      ASSERT_TRUE(reference.AdmitView(store_.views[i]).ok());
    }
    // The final admission's WAL record will be torn off below — the
    // reference deliberately does NOT see it.
    ASSERT_TRUE(durable->AdmitView(store_.views.back()).ok());
  }
  // Simulate a crash mid-append: drop the last byte of the WAL.
  const std::string wal_path = dir_.File(WalFileName());
  std::string bytes;
  {
    std::ifstream f(wal_path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  {
    std::ofstream f(wal_path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 1));
  }

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(),
            static_cast<uint64_t>(store_.views.size() - 1));
  ExpectParity(recovered.get(), &reference, store_, 1006);

  // The torn tail was truncated on open: the next admission lands on a
  // clean log and survives another restart.
  ASSERT_TRUE(recovered->AdmitView(store_.views.back()).ok());
  ASSERT_TRUE(reference.AdmitView(store_.views.back()).ok());
  recovered.reset();
  recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1007);
}

TEST_F(RecoveryTest, BatchAdmissionIsOneWalRecordAndRecovers) {
  ViewService reference(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitViews(store_.views).ok());
    ASSERT_TRUE(reference.AdmitViews(store_.views).ok());
    EXPECT_EQ(durable->epoch(), 1u);
  }
  auto replay = ReplayWal(dir_.File(WalFileName()));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].views.size(), store_.views.size());

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1008);
}

TEST_F(RecoveryTest, AutomaticBackgroundCompactionTriggers) {
  ViewServiceOptions options;
  options.store.compact_wal_bytes = 1;  // every admission exceeds this
  {
    auto durable = OpenDurable(options);
    ASSERT_NE(durable, nullptr);
    for (const ExplanationView& v : store_.views) {
      ASSERT_TRUE(durable->AdmitView(v).ok());
    }
  }  // destructor joins the background compactor

  // At least one background compaction ran: a snapshot exists and the WAL
  // holds only records newer than it (possibly none).
  auto epochs = ListSnapshotEpochs(dir_.path());
  ASSERT_TRUE(epochs.ok());
  ASSERT_FALSE(epochs.value().empty());
  const uint64_t snap_epoch = epochs.value().back();
  EXPECT_GE(snap_epoch, 1u);
  auto replay = ReplayWal(dir_.File(WalFileName()));
  ASSERT_TRUE(replay.ok());
  for (const WalRecord& r : replay.value().records) {
    EXPECT_GT(r.epoch, snap_epoch);
  }

  // And the recovered state is still complete.
  ViewService reference(&store_.db);
  for (const ExplanationView& v : store_.views) {
    ASSERT_TRUE(reference.AdmitView(v).ok());
  }
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1009);
}

TEST_F(RecoveryTest, CorruptNewestSnapshotFallsBackToOlder) {
  ViewService reference(&store_.db);
  uint64_t second_epoch = 0;
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(reference.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());  // snapshot at epoch 1
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(reference.AdmitView(store_.views[1]).ok());
    // Full on purpose: this test corrupts the newest FULL snapshot file.
    auto saved = durable->Save(SaveKind::kFull);  // snapshot at epoch 2
    ASSERT_TRUE(saved.ok());
    second_epoch = saved.value().epoch;
  }
  // Corrupt the NEWEST snapshot; recovery must fall back to epoch 1 and
  // replay the WAL over it — ending bit-identical anyway.
  const std::string newest =
      dir_.File(SnapshotFileName(second_epoch));
  std::string bytes;
  {
    std::ifstream f(newest, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 21u);
  bytes[20] = static_cast<char>(bytes[20] ^ 0x5A);  // flip inside a record
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_FALSE(LoadSnapshot(newest).ok());

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  ExpectParity(recovered.get(), &reference, store_, 1010);
}

// The fallback above was safe because the WAL still reached epoch 2. When
// it provably cannot (Compact reset the WAL, then the newest snapshot
// corrupted), Open must FAIL-STOP rather than silently serve stale state.
TEST_F(RecoveryTest, UnreachableNewestSnapshotFailsStop) {
  ViewServiceOptions options;
  options.store.prune_snapshots = false;  // keep the older snapshot around
  {
    auto durable = OpenDurable(options);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save().ok());              // snapshot-1 survives
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Compact().ok());           // snapshot-2, WAL reset
  }
  const std::string newest = dir_.File(SnapshotFileName(2));
  std::string bytes;
  {
    std::ifstream f(newest, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  bytes[20] = static_cast<char>(bytes[20] ^ 0x5A);
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto opened = ViewService::Open(dir_.path(), &store_.db, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("acknowledged state"),
            std::string::npos)
      << opened.status().ToString();

  // The operator accepts the rollback by deleting the corrupt file;
  // recovery then lands on epoch 1.
  ASSERT_EQ(std::remove(newest.c_str()), 0);
  auto recovered = OpenDurable(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 1u);
}

// The non-empty-WAL variant of the fail-stop: Compact at epoch 2 reset the
// WAL, admissions 3.. were logged, then snapshot-2 corrupted while
// snapshot-1 survived (prune_snapshots off). Replay onto snapshot-1 would
// end at the newest epoch — the final-epoch comparison alone cannot see
// that epoch 2's admission was silently dropped. The epoch GAP between the
// loaded snapshot (1) and the first WAL record (3) must fail-stop.
TEST_F(RecoveryTest, WalEpochGapAfterCompactFailsStop) {
  ViewServiceOptions options;
  options.store.prune_snapshots = false;  // keep the older snapshot around
  {
    auto durable = OpenDurable(options);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save().ok());       // snapshot-1 survives
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Compact().ok());    // snapshot-2, WAL reset
    ASSERT_TRUE(durable->AdmitView(store_.views[2]).ok());  // WAL: epoch 3
  }
  const std::string newest = dir_.File(SnapshotFileName(2));
  std::string bytes;
  {
    std::ifstream f(newest, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  bytes[20] = static_cast<char>(bytes[20] ^ 0x5A);
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto opened = ViewService::Open(dir_.path(), &store_.db, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("cannot attach"),
            std::string::npos)
      << opened.status().ToString();

  // Deleting the corrupt snapshot does not help — the WAL still cannot
  // attach epoch 3 to snapshot-1; the gap keeps the store fail-stopped.
  ASSERT_EQ(std::remove(newest.c_str()), 0);
  opened = ViewService::Open(dir_.path(), &store_.db, options);
  ASSERT_FALSE(opened.ok());

  // The operator accepts losing epochs 2.. by deleting the WAL too;
  // recovery then lands cleanly on snapshot-1.
  ASSERT_EQ(std::remove(dir_.File(WalFileName()).c_str()), 0);
  auto recovered = OpenDurable(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 1u);
}

// Recovery must answer with the match semantics recorded in the snapshot,
// not the caller's defaults — symmetrically on the posting-decode and the
// WAL-replay (index rebuild) paths. Otherwise the same store would answer
// differently depending on whether a WAL record existed at reopen, and a
// later Compact would persist the wrong options.
TEST_F(RecoveryTest, RecoveryAdoptsTheSnapshotsMatchOptions) {
  ViewServiceOptions non_induced;
  non_induced.index.match.semantics = MatchSemantics::kNonInduced;
  {
    auto durable = OpenDurable(non_induced);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save().ok());                      // snapshot-1
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());  // WAL-only
  }
  // Reopen with DEFAULT (induced) options: the WAL record forces an index
  // rebuild, which must still use the stored kNonInduced semantics.
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  // Full on purpose: only full snapshots record the index options.
  ASSERT_TRUE(recovered->Save(SaveKind::kFull).ok());
  auto epochs = ListSnapshotEpochs(dir_.path());
  ASSERT_TRUE(epochs.ok());
  auto snapshot =
      LoadSnapshot(dir_.File(SnapshotFileName(epochs.value().back())));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(static_cast<int>(snapshot.value().match.semantics),
            static_cast<int>(MatchSemantics::kNonInduced));
}

// Reads a whole file as bytes ("" when unreadable).
std::string ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// Incremental index maintenance against a scratch build: after admits that
// each re-check only their own labels — live (AdmitCombined) and on
// recovery (base postings decoded, WAL tail applied) — a full Save must
// write exactly the bytes a from-scratch PatternIndex::Build over the same
// views serializes to.
TEST_F(RecoveryTest, IncrementalAdmitsSaveBytesEqualScratchBuild) {
  std::map<int, ExplanationView> views;
  const auto admit = [&](ViewService* service, ExplanationView v) {
    views[v.label] = v;
    ASSERT_TRUE(service->AdmitView(std::move(v)).ok());
  };
  const auto expect_scratch_bytes = [&](ViewService* service,
                                        const std::string& where) {
    auto saved = service->Save(SaveKind::kFull);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    SnapshotData scratch;
    scratch.epoch = saved.value().epoch;
    scratch.match = PatternIndex::BuildOptions().match;
    scratch.database_indexed = true;
    scratch.views = views;
    scratch.postings = PatternIndex::Build(views, &store_.db).ExportPostings();
    const std::string bytes =
        ReadBytes(dir_.File(SnapshotFileName(saved.value().epoch)));
    EXPECT_EQ(bytes, SerializeSnapshot(scratch)) << where;
    auto parsed = ParseSnapshot(bytes);
    ASSERT_TRUE(parsed.ok()) << where << ": " << parsed.status().ToString();
    EXPECT_TRUE(parsed.value().postings == scratch.postings) << where;
  };
  // A view whose tier loses half its codes and gains another label's, so
  // codes appear and vanish across epochs, and whose subgraph list shrinks,
  // so its coverage words must be recomputed.
  ExplanationView reshaped = store_.views[1];
  reshaped.patterns.resize(reshaped.patterns.size() / 2);
  reshaped.patterns.push_back(store_.views[2].patterns.back());
  reshaped.subgraphs.pop_back();
  ExplanationView regrown = store_.views[0];
  regrown.subgraphs.push_back(store_.views[3].subgraphs.front());
  ExplanationView fresh = store_.views[3];
  fresh.label = 42;

  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (const ExplanationView& v : store_.views) admit(durable.get(), v);
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    // The WAL tail past the snapshot: rotations, a reshaped tier, a new
    // label.
    admit(durable.get(), synthetic::VersionedView(store_, 0, 1));
    admit(durable.get(), reshaped);
    admit(durable.get(), fresh);
    admit(durable.get(), synthetic::VersionedView(store_, 2, 3));
  }
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), store_.views.size() + 4);
  expect_scratch_bytes(recovered.get(), "snapshot + WAL tail recovery");

  // Live admissions on the recovered service, then another full save.
  admit(recovered.get(), synthetic::VersionedView(store_, 1, 2));
  admit(recovered.get(), regrown);
  admit(recovered.get(), store_.views[1]);
  expect_scratch_bytes(recovered.get(), "live incremental admits");
}

// A crash between WAL creation and the header reaching disk leaves a
// sub-header wal.gvxw; Open must treat it as empty, not brick the store.
TEST_F(RecoveryTest, SubHeaderWalOpensAsEmpty) {
  {
    std::ofstream f(dir_.File(WalFileName()), std::ios::binary);
    f.write("GV", 2);  // torn header
  }
  auto service = OpenDurable();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->epoch(), 0u);
  // And the rewritten log accepts admissions that survive a restart.
  ASSERT_TRUE(service->AdmitView(store_.views[0]).ok());
  service.reset();
  service = OpenDurable();
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->epoch(), 1u);
}

}  // namespace
}  // namespace gvex
