// The crash/interleaving harness for delta snapshot chains and batched
// admissions — the acceptance suite for incremental durability. Three
// layers, all pinned against an in-memory oracle that never restarted:
//
//   1. ENUMERATED KILL-POINTS: every distinct crash site of the
//      save/compact state machine is reconstructed on disk (mid-delta
//      write = stray tmp file, torn delta bytes, post-delta pre-WAL-reset
//      overlap, mid-compact between snapshot write / WAL reset / prune)
//      and recovery must either reach the acknowledged state bit-
//      identically or FAIL-STOP when it provably cannot.
//   2. SEEDED RANDOM OP SEQUENCES: a single-threaded fuzzer drives
//      admit / save-auto / save-delta / save-full / compact / kill+reopen
//      from a seeded Rng, mirroring admissions into the oracle; every
//      reopen must answer bit-identically.
//   3. SEEDED RANDOM INTERLEAVER: >= 8 admitter threads x >= 100
//      iterations racing queries, saves, and compactions, then a kill —
//      the recovered store must answer bit-identically to the oracle
//      holding each thread's last acknowledged admission, and no query
//      may ever observe a torn (non-admitted) view version.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/store_test_util.h"
#include "store/wal.h"
#include "util/rng.h"

namespace gvex {
namespace {

using testing::ScratchDir;

// Small store so index rebuilds stay cheap: the harness performs hundreds
// of admissions.
synthetic::SyntheticStore TinyStore(uint64_t seed, int num_labels) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = num_labels;
  opt.graphs_per_label = 3;
  opt.patterns_per_label = 6;
  opt.min_nodes = 6;
  opt.max_nodes = 10;
  return synthetic::MakeSyntheticStore(seed, opt);
}

using synthetic::VersionedView;

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> codes;
  codes.reserve(patterns.size());
  for (const Pattern& p : patterns) codes.push_back(p.canonical_code());
  return codes;
}

// Oracle parity: the recovered service must answer every query kind
// bit-identically to the never-restarted oracle. Epochs are NOT compared
// (the oracle admits only final versions), answers are.
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

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    std::stringstream ss;
    ss << f.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), offset);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return f.good();
}

uint64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<uint64_t>(f.tellg()) : 0;
}

class ChainCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(dir_.ok());
    store_ = TinyStore(91, /*num_labels=*/8);
  }

  std::unique_ptr<ViewService> OpenDurable(ViewServiceOptions options = {}) {
    auto opened = ViewService::Open(dir_.path(), &store_.db, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  ScratchDir dir_;
  synthetic::SyntheticStore store_;
};

// The baseline chain round trip: base + delta + delta + WAL tail, killed
// and recovered bit-identically; the plan reports the resolved chain.
TEST_F(ChainCrashTest, BaseDeltaDeltaWalRecoversBitIdentical) {
  ViewService oracle(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (int label = 0; label < 2; ++label) {
      ASSERT_TRUE(durable->AdmitView(store_.views[label]).ok());
      ASSERT_TRUE(oracle.AdmitView(store_.views[label]).ok());
    }
    auto base = durable->Save(SaveKind::kFull);
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(base.value().epoch, 2u);
    for (int label = 2; label < 4; ++label) {
      ASSERT_TRUE(durable->AdmitView(store_.views[label]).ok());
      ASSERT_TRUE(oracle.AdmitView(store_.views[label]).ok());
      auto delta = durable->Save(SaveKind::kDelta);
      ASSERT_TRUE(delta.ok());
      EXPECT_TRUE(delta.value().delta);
    }
    // Epoch 5 reaches only the WAL.
    ASSERT_TRUE(durable->AdmitView(store_.views[4]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[4]).ok());
  }  // kill

  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().base_epoch, 2u);
  EXPECT_EQ(plan.value().chain, (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(plan.value().final_epoch, 5u);
  EXPECT_FALSE(plan.value().postings_valid);

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 5u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// A chain with no WAL tail past the tip warm-starts without paying the
// isomorphism rebuild only when NO delta was applied; with deltas the
// index is rebuilt — either way, answers are bit-identical.
TEST_F(ChainCrashTest, PureBaseKeepsPostingsDeltaChainRebuilds) {
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
  }
  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().postings_valid);
  EXPECT_FALSE(plan.value().snapshot.postings.empty());
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
  }
  plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().postings_valid);
  EXPECT_TRUE(plan.value().snapshot.postings.empty());
  EXPECT_EQ(plan.value().chain, (std::vector<uint64_t>{2}));
}

// A full save of the EMPTY epoch-0 store is a real base: the delta policy
// must accept it (regression pin — inferring "have a base" from
// base_epoch > 0 silently rejected a genuine snapshot-0 file).
TEST_F(ChainCrashTest, EpochZeroFullSaveIsAUsableBase) {
  auto durable = OpenDurable();
  ASSERT_NE(durable, nullptr);
  ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());  // snapshot-0
  ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
  auto delta = durable->Save(SaveKind::kDelta);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta.value().delta);
  // kAuto at the persisted tip is a no-op, not a full rewrite.
  auto again = durable->Save(SaveKind::kAuto);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().wrote);
  durable.reset();

  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().have_snapshot);
  EXPECT_EQ(plan.value().base_epoch, 0u);
  EXPECT_EQ(plan.value().chain, (std::vector<uint64_t>{1}));
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 1u);
}

// A WAL append that really fails (a file-size cap cuts the write short)
// fails the admission and publishes nothing: the epoch, the admitted-view
// count and the log's size stay where they were. Once the cap lifts, the
// next admission publishes the very next epoch, and a reopen answers
// bit-identically to an oracle that never saw the failed admission.
TEST_F(ChainCrashTest, FailedWalAppendPublishesNothing) {
  ViewService oracle(&store_.db);
  const std::string wal_path = dir_.File(WalFileName());
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    const uint64_t epoch = durable->epoch();
    const uint64_t admitted = durable->stats().admitted_views;
    const uint64_t wal_bytes = FileSize(wal_path);
    {
      testing::FileSizeLimit limit(wal_bytes + 20);
      ASSERT_TRUE(limit.ok());
      auto failed = durable->AdmitViews({store_.views[1], store_.views[2]});
      ASSERT_FALSE(failed.ok());
      EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
    }
    EXPECT_EQ(durable->epoch(), epoch);
    EXPECT_EQ(durable->stats().admitted_views, admitted);
    EXPECT_EQ(FileSize(wal_path), wal_bytes);
    ExpectOracleParity(durable.get(), &oracle);

    auto next = durable->AdmitView(store_.views[3]);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next.value(), epoch + 1);
    ASSERT_TRUE(oracle.AdmitView(store_.views[3]).ok());
  }
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 2u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// KILL-POINT: mid-delta (and mid-snapshot) write. Atomic tmp+rename means
// a crash mid-write leaves only a stray `*.tmp` — recovery must ignore it
// and reach the pre-crash acknowledged state.
TEST_F(ChainCrashTest, KillMidWriteLeavesOnlyTmpFilesAndRecovers) {
  ViewService oracle(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[1]).ok());
  }
  // The crash site: a delta save (and a compact's snapshot save) died
  // before the rename — partial bytes under the tmp name.
  {
    std::ofstream f(dir_.File(DeltaFileName(2) + ".tmp"), std::ios::binary);
    f.write("partial delta bytes", 19);
  }
  {
    std::ofstream f(dir_.File(SnapshotFileName(2) + ".tmp"),
                    std::ios::binary);
    f.write("partial snapshot bytes", 22);
  }
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 2u);  // epoch 2 recovered from the WAL
  ExpectOracleParity(recovered.get(), &oracle);
}

// KILL-POINT: post-delta, pre-WAL-maintenance. Save never resets the WAL,
// so after a delta save the log still holds the records the delta covers
// — replay must skip everything at or below the chain tip instead of
// double-applying it.
TEST_F(ChainCrashTest, WalRecordsOverlappingTheChainAreNotReapplied) {
  ViewService oracle(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    // Two versions of the SAME label: the delta persists only the second;
    // replaying the overlapping WAL records in order would be harmless,
    // but replaying them OVER the delta out of order would not — pin the
    // skip.
    ASSERT_TRUE(durable->AdmitView(VersionedView(store_, 1, 1)).ok());
    ASSERT_TRUE(durable->AdmitView(VersionedView(store_, 1, 2)).ok());
    ASSERT_TRUE(oracle.AdmitView(VersionedView(store_, 1, 2)).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
  }  // kill right after the delta write: WAL still holds epochs 2 and 3
  auto replay = ReplayWal(dir_.File(WalFileName()));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 3u);  // nothing was reset
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 3u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// KILL-POINT: torn delta bytes (the file renamed but a torn disk flipped
// a bit). While the WAL still reaches the delta's epoch, recovery heals
// through replay; the chain is simply shorter.
TEST_F(ChainCrashTest, TornDeltaHealsThroughWalReplay) {
  ViewService oracle(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
  }
  FlipByte(dir_.File(DeltaFileName(2)), 20);
  ASSERT_FALSE(LoadDelta(dir_.File(DeltaFileName(2))).ok());

  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().chain.empty());  // the chain stops at the base
  EXPECT_EQ(plan.value().final_epoch, 2u);  // ...but the WAL reaches 2

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 2u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// KILL-POINT: torn delta AND no WAL (Compact reset it, then the delta
// corrupted). The delta file proves its epoch was acknowledged; nothing
// reaches it — recovery must FAIL-STOP, and deleting the corrupt delta
// accepts the rollback.
TEST_F(ChainCrashTest, TornDeltaWithoutWalFailsStop) {
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
  }
  FlipByte(dir_.File(DeltaFileName(2)), 20);
  ASSERT_EQ(std::remove(dir_.File(WalFileName()).c_str()), 0);

  auto opened = ViewService::Open(dir_.path(), &store_.db, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError());
  EXPECT_NE(opened.status().message().find("acknowledged state"),
            std::string::npos)
      << opened.status().ToString();

  ASSERT_EQ(std::remove(dir_.File(DeltaFileName(2)).c_str()), 0);
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 1u);  // rolled back to the base
}

// KILL-POINT: a delta whose PARENT image is gone (the middle of a chain
// corrupted). The tail delta cannot attach; with the WAL also gone, the
// store fail-stops rather than serving a gap.
TEST_F(ChainCrashTest, BrokenChainMiddleFailsStopWithoutWal) {
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    for (int label = 1; label <= 2; ++label) {
      ASSERT_TRUE(durable->AdmitView(store_.views[label]).ok());
      ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
    }
  }
  FlipByte(dir_.File(DeltaFileName(2)), 20);  // middle of the chain
  ASSERT_EQ(std::remove(dir_.File(WalFileName()).c_str()), 0);

  auto opened = ViewService::Open(dir_.path(), &store_.db, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();

  // Deleting only the corrupt middle does not help: delta-3's parent (2)
  // is still unreachable. Deleting the tail too accepts rolling back to
  // the base.
  ASSERT_EQ(std::remove(dir_.File(DeltaFileName(2)).c_str()), 0);
  opened = ViewService::Open(dir_.path(), &store_.db, {});
  ASSERT_FALSE(opened.ok());
  ASSERT_EQ(std::remove(dir_.File(DeltaFileName(3)).c_str()), 0);
  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 1u);
}

// KILL-POINT: mid-compact, after the snapshot write but before the WAL
// reset (a full save with the WAL untouched is exactly that crash state).
TEST_F(ChainCrashTest, KillBetweenCompactSnapshotAndWalReset) {
  ViewService oracle(&store_.db);
  {
    auto durable = OpenDurable();
    ASSERT_NE(durable, nullptr);
    for (int label = 0; label < 3; ++label) {
      ASSERT_TRUE(durable->AdmitView(store_.views[label]).ok());
      ASSERT_TRUE(oracle.AdmitView(store_.views[label]).ok());
    }
    // Compact's first half: the full snapshot hit the disk...
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
  }  // ...and the process died before the WAL reset.
  auto replay = ReplayWal(dir_.File(WalFileName()));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 3u);

  auto recovered = OpenDurable();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 3u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// KILL-POINT: mid-compact, after the WAL reset but before the prune. The
// superseded base, its deltas, and the fresh base coexist; recovery must
// pick the newest base and ignore the stale chain.
TEST_F(ChainCrashTest, KillBetweenCompactWalResetAndPrune) {
  ViewService oracle(&store_.db);
  ViewServiceOptions no_prune;
  no_prune.store.prune_snapshots = false;  // = the prune never happened
  {
    auto durable = OpenDurable(no_prune);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());
    ASSERT_TRUE(durable->AdmitView(store_.views[2]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[2]).ok());
    ASSERT_TRUE(durable->Compact().ok());
  }
  // All three images survived the un-pruned compact.
  EXPECT_TRUE(FileExists(dir_.File(SnapshotFileName(1))));
  EXPECT_TRUE(FileExists(dir_.File(DeltaFileName(2))));
  EXPECT_TRUE(FileExists(dir_.File(SnapshotFileName(3))));

  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().base_epoch, 3u);    // newest base wins
  EXPECT_TRUE(plan.value().chain.empty());   // stale delta-2 ignored
  EXPECT_TRUE(plan.value().postings_valid);

  auto recovered = OpenDurable(no_prune);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 3u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// A superseded base falling back: the newest base corrupts, recovery
// falls back to the OLDER base and re-attaches the deltas recorded
// against its chain — plus the WAL tail — ending bit-identical anyway.
TEST_F(ChainCrashTest, CorruptNewestBaseFallsBackThroughOldChain) {
  ViewService oracle(&store_.db);
  ViewServiceOptions no_prune;
  no_prune.store.prune_snapshots = false;
  {
    auto durable = OpenDurable(no_prune);
    ASSERT_NE(durable, nullptr);
    ASSERT_TRUE(durable->AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[0]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());      // base 1
    ASSERT_TRUE(durable->AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[1]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kDelta).ok());     // delta 2
    ASSERT_TRUE(durable->AdmitView(store_.views[2]).ok());
    ASSERT_TRUE(oracle.AdmitView(store_.views[2]).ok());
    ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());      // base 3
  }
  FlipByte(dir_.File(SnapshotFileName(3)), 20);

  auto plan = PlanRecovery(dir_.path());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().base_epoch, 1u);
  EXPECT_EQ(plan.value().chain, (std::vector<uint64_t>{2}));
  EXPECT_EQ(plan.value().final_epoch, 3u);  // the WAL still reaches 3

  auto recovered = OpenDurable(no_prune);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->epoch(), 3u);
  ExpectOracleParity(recovered.get(), &oracle);
}

// LAYER 2: seeded random op sequences. Every kill+reopen must recover
// bit-identically to the oracle mirroring the acknowledged admissions.
TEST_F(ChainCrashTest, SeededRandomOpSequencesRecoverBitIdentical) {
  constexpr int kSeeds = 6;
  constexpr int kOpsPerSeed = 24;
  constexpr int kLabels = 8;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    ScratchDir dir;
    ASSERT_TRUE(dir.ok());
    Rng rng(7000 + seed);
    std::vector<int> version(kLabels, -1);  // -1 = never admitted
    auto opened = ViewService::Open(dir.path(), &store_.db, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<ViewService> durable = std::move(opened).value();

    auto reopen_and_check = [&]() {
      durable.reset();  // kill
      auto reopened = ViewService::Open(dir.path(), &store_.db, {});
      ASSERT_TRUE(reopened.ok())
          << "seed " << seed << ": " << reopened.status().ToString();
      durable = std::move(reopened).value();
      ViewService oracle(&store_.db);
      for (int label = 0; label < kLabels; ++label) {
        if (version[static_cast<size_t>(label)] < 0) continue;
        ASSERT_TRUE(
            oracle
                .AdmitView(VersionedView(
                    store_, label, version[static_cast<size_t>(label)]))
                .ok());
      }
      ExpectOracleParity(durable.get(), &oracle);
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      switch (rng.NextUint(10)) {
        case 0: case 1: case 2: case 3: case 4: {  // admit (most common)
          const int label = static_cast<int>(rng.NextUint(kLabels));
          const int v = version[static_cast<size_t>(label)] + 1;
          ASSERT_TRUE(
              durable->AdmitView(VersionedView(store_, label, v)).ok());
          version[static_cast<size_t>(label)] = v;
          break;
        }
        case 5:
          ASSERT_TRUE(durable->Save(SaveKind::kAuto).ok());
          break;
        case 6: {
          // Forced delta: legal only once a base exists.
          auto saved = durable->Save(SaveKind::kDelta);
          EXPECT_TRUE(saved.ok() ||
                      saved.status().IsFailedPrecondition())
              << saved.status().ToString();
          break;
        }
        case 7:
          ASSERT_TRUE(durable->Save(SaveKind::kFull).ok());
          break;
        case 8:
          ASSERT_TRUE(durable->Compact().ok());
          break;
        case 9:
          reopen_and_check();
          break;
      }
    }
    reopen_and_check();
  }
}

// LAYER 3: the seeded random interleaver. 8 admitter threads x 100
// iterations race 2 query threads, a saver (auto/delta/full), and a
// compactor; queries must never observe a torn view version, and after a
// kill the store recovers bit-identically to each thread's last
// acknowledged admission — across TWO crash/recover rounds.
TEST_F(ChainCrashTest, SeededRandomInterleaverRecoversBitIdentical) {
  constexpr int kThreads = 8;    // one label per admitter thread
  constexpr int kIters = 100;    // admissions per thread per round
  constexpr int kRounds = 2;

  // Everything a query may legally observe: every version's tier-code
  // vector, per label (computed up front — the checker must not race).
  std::vector<std::set<std::vector<std::string>>> legal(kThreads);
  for (int label = 0; label < kThreads; ++label) {
    for (int v = 0; v <= kRounds * kIters; ++v) {
      legal[static_cast<size_t>(label)].insert(
          Codes(VersionedView(store_, label, v).patterns));
    }
  }

  std::vector<int> last_version(kThreads, -1);
  ViewServiceOptions options;
  options.store.delta_max_chain = 4;  // exercise auto chain folding
  auto opened = ViewService::Open(dir_.path(), &store_.db, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ViewService> durable = std::move(opened).value();

  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> done{false};
    std::atomic<int> torn{0};

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(1000u * static_cast<uint64_t>(round) +
                static_cast<uint64_t>(t));
        for (int i = 0; i < kIters; ++i) {
          const int v = last_version[static_cast<size_t>(t)] + 1;
          auto admitted =
              durable->AdmitView(VersionedView(store_, t, v));
          ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
          // Only acknowledged admissions enter the oracle state —
          // last_version[t] is owned by this thread.
          last_version[static_cast<size_t>(t)] = v;
          if (rng.NextUint(16) == 0) std::this_thread::yield();
        }
      });
    }
    std::vector<std::thread> queriers;
    for (int q = 0; q < 2; ++q) {
      queriers.emplace_back([&, q] {
        Rng rng(500u + static_cast<uint64_t>(q));
        uint64_t last_epoch = 0;
        while (!done.load(std::memory_order_acquire)) {
          const int label = static_cast<int>(rng.NextUint(kThreads));
          std::vector<ViewQuery> batch(2);
          batch[0].kind = QueryKind::kPatternsForLabel;
          batch[0].label = label;
          batch[1].kind = QueryKind::kLabels;
          const auto results = durable->ExecuteBatch(batch);
          if (results[0].epoch < last_epoch) ++torn;  // monotone epochs
          last_epoch = results[0].epoch;
          if (results[0].patterns.empty()) continue;  // not admitted yet
          // The tier must be EXACTLY one admitted version — a torn or
          // partially applied admission would show a mix.
          if (legal[static_cast<size_t>(label)].count(
                  Codes(results[0].patterns)) == 0) {
            ++torn;
          }
        }
      });
    }
    std::thread saver([&] {
      Rng rng(42u + static_cast<uint64_t>(round));
      while (!done.load(std::memory_order_acquire)) {
        switch (rng.NextUint(3)) {
          case 0:
            (void)durable->Save(SaveKind::kAuto);
            break;
          case 1:
            (void)durable->Save(SaveKind::kDelta);
            break;
          default:
            (void)durable->Compact();
            break;
        }
        std::this_thread::yield();
      }
    });

    for (std::thread& t : workers) t.join();
    done.store(true, std::memory_order_release);
    for (std::thread& t : queriers) t.join();
    saver.join();
    ASSERT_EQ(torn.load(), 0) << "round " << round;

    // Kill and recover: the store must answer bit-identically to the
    // oracle of last acknowledged versions.
    durable.reset();
    auto reopened = ViewService::Open(dir_.path(), &store_.db, options);
    ASSERT_TRUE(reopened.ok())
        << "round " << round << ": " << reopened.status().ToString();
    durable = std::move(reopened).value();
    ViewService oracle(&store_.db);
    for (int label = 0; label < kThreads; ++label) {
      ASSERT_GE(last_version[static_cast<size_t>(label)], 0);
      ASSERT_TRUE(oracle
                      .AdmitView(VersionedView(
                          store_, label,
                          last_version[static_cast<size_t>(label)]))
                      .ok());
    }
    ExpectOracleParity(durable.get(), &oracle);
  }
}

}  // namespace
}  // namespace gvex
