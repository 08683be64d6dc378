#include "store/wal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explain/view_io.h"
#include "serve/synthetic_store.h"
#include "store/codec.h"
#include "store/store_test_util.h"

namespace gvex {
namespace {

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

WalRecord MakeRecord(uint64_t epoch, const std::vector<ExplanationView>& v) {
  WalRecord r;
  r.epoch = epoch;
  r.views = v;
  return r;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(dir_.ok());
    store_ = synthetic::MakeSyntheticStore(41, /*num_labels=*/3);
    path_ = dir_.File(WalFileName());
  }

  testing::ScratchDir dir_;
  synthetic::SyntheticStore store_;
  std::string path_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
    ASSERT_TRUE(
        wal.Append(MakeRecord(2, {store_.views[1], store_.views[2]})).ok());
    EXPECT_GT(wal.file_bytes(), kStoreHeaderBytes);
  }
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const WalReplay& log = replay.value();
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].epoch, 1u);
  ASSERT_EQ(log.records[0].views.size(), 1u);
  EXPECT_EQ(SerializeView(log.records[0].views[0]),
            SerializeView(store_.views[0]));
  EXPECT_EQ(log.records[1].epoch, 2u);
  EXPECT_EQ(log.records[1].views.size(), 2u);
  // valid_bytes covers the whole file when the tail is clean.
  EXPECT_EQ(log.valid_bytes, ReadFileBytes(path_).size());
}

TEST_F(WalTest, MissingFileIsNotFound) {
  auto replay = ReplayWal(dir_.File("nonexistent.gvxw"));
  ASSERT_FALSE(replay.ok());
  EXPECT_TRUE(replay.status().IsNotFound());
}

TEST_F(WalTest, TornTailIsToleratedAtEveryTruncationPoint) {
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(2, {store_.views[1]})).ok());
  }
  const std::string bytes = ReadFileBytes(path_);
  auto full = ReplayWal(path_);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().records.size(), 2u);

  // Chop the file at every byte: replay must always succeed with a prefix
  // of the records and flag the torn tail (except at clean boundaries).
  for (size_t cut = kStoreHeaderBytes; cut < bytes.size(); ++cut) {
    WriteFileBytes(path_, bytes.substr(0, cut));
    auto replay = ReplayWal(path_);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    const WalReplay& log = replay.value();
    EXPECT_LT(log.records.size(), 2u);
    EXPECT_LE(log.valid_bytes, cut);
    // A cut exactly at a record boundary reads as a clean (shorter) log;
    // anywhere else the tail is torn and reported.
    EXPECT_EQ(log.torn_tail, log.valid_bytes != cut) << "cut at " << cut;
    if (log.torn_tail) {
      EXPECT_FALSE(log.tail_error.empty());
    }
  }

  // Below the header there is provably nothing to recover: a crash during
  // WAL creation must read as an empty torn log, not brick the store.
  for (size_t cut = 0; cut < kStoreHeaderBytes; ++cut) {
    WriteFileBytes(path_, bytes.substr(0, cut));
    auto replay = ReplayWal(path_);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    EXPECT_TRUE(replay.value().records.empty());
    EXPECT_TRUE(replay.value().torn_tail);
    EXPECT_EQ(replay.value().valid_bytes, 0u);
  }
}

TEST_F(WalTest, CorruptionStopsReplayAtTheBadRecord) {
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(2, {store_.views[1]})).ok());
  }
  std::string bytes = ReadFileBytes(path_);
  // Flip a byte in the FIRST record's payload region.
  bytes[kStoreHeaderBytes + 8] =
      static_cast<char>(bytes[kStoreHeaderBytes + 8] ^ 0xFF);
  WriteFileBytes(path_, bytes);
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 0u);
  EXPECT_TRUE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().valid_bytes, kStoreHeaderBytes);
}

TEST_F(WalTest, ReopenAfterTornTailTruncatesAndAppends) {
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(2, {store_.views[1]})).ok());
  }
  // Simulate a crash mid-append: drop the last 3 bytes.
  const std::string bytes = ReadFileBytes(path_);
  WriteFileBytes(path_, bytes.substr(0, bytes.size() - 3));

  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  ASSERT_TRUE(replay.value().torn_tail);

  // Reopen truncated to the valid prefix, append a fresh record.
  {
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, replay.value().valid_bytes).ok());
    ASSERT_TRUE(wal.Append(MakeRecord(2, {store_.views[2]})).ok());
  }
  auto after = ReplayWal(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().torn_tail);
  ASSERT_EQ(after.value().records.size(), 2u);
  EXPECT_EQ(after.value().records[0].epoch, 1u);
  EXPECT_EQ(after.value().records[1].epoch, 2u);
  EXPECT_EQ(SerializeView(after.value().records[1].views[0]),
            SerializeView(store_.views[2]));
}

TEST_F(WalTest, SyncBatchingStillReplaysEverything) {
  {
    WalWriter wal;
    wal.set_sync_every(4);  // batch fsyncs
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    for (uint64_t e = 1; e <= 10; ++e) {
      ASSERT_TRUE(
          wal.Append(MakeRecord(e, {store_.views[e % 3]})).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 10u);
  for (uint64_t e = 1; e <= 10; ++e) {
    EXPECT_EQ(replay.value().records[e - 1].epoch, e);
  }
}

TEST_F(WalTest, ResetLeavesAnEmptyLog) {
  WalWriter wal;
  ASSERT_TRUE(wal.Open(path_, 0).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
  const uint64_t before = wal.file_bytes();
  EXPECT_GT(before, kStoreHeaderBytes);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.file_bytes(), kStoreHeaderBytes);
  // Still appendable after the reset.
  ASSERT_TRUE(wal.Append(MakeRecord(5, {store_.views[1]})).ok());
  wal.Close();
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].epoch, 5u);
}

TEST_F(WalTest, AppendWithoutOpenFailsCleanly) {
  WalWriter wal;
  EXPECT_TRUE(wal.Append(MakeRecord(1, {})).IsFailedPrecondition());
  EXPECT_TRUE(wal.Sync().IsFailedPrecondition());
  EXPECT_TRUE(wal.Reset().IsFailedPrecondition());
}

// Reset is the recovery path for a writer that a failed rollback or reset
// left closed (callers only Reset when a snapshot covers the log), so it
// must work from the closed state too.
TEST_F(WalTest, ResetRecoversAClosedWriter) {
  WalWriter wal;
  ASSERT_TRUE(wal.Open(path_, 0).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
  wal.Close();
  EXPECT_FALSE(wal.is_open());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_TRUE(wal.is_open());
  EXPECT_EQ(wal.file_bytes(), kStoreHeaderBytes);
  ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[1]})).ok());
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 1u);
}

// A write that really fails: under a file-size cap the append comes back
// short mid-frame (then EFBIG). The writer reports IOError and leaves the
// file at the last acknowledged offset, so once the cap lifts the next
// append lands right after it and replay sees every acknowledged record.
TEST_F(WalTest, FailedAppendRollsBackToTheLastAcknowledgedRecord) {
  for (int sync_every : {1, 4}) {
    SCOPED_TRACE(sync_every);
    WalWriter wal;
    ASSERT_TRUE(wal.Open(path_, 0).ok());
    wal.set_sync_every(sync_every);
    ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
    const uint64_t acked = wal.file_bytes();
    {
      testing::FileSizeLimit limit(acked + 20);
      ASSERT_TRUE(limit.ok());
      Status st = wal.Append(MakeRecord(2, {store_.views[1]}));
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
      EXPECT_EQ(wal.file_bytes(), acked);
      EXPECT_EQ(ReadFileBytes(path_).size(), acked);
    }
    ASSERT_TRUE(wal.Append(MakeRecord(2, {store_.views[1]})).ok());
    ASSERT_TRUE(wal.Close().ok());

    auto replay = ReplayWal(path_);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_FALSE(replay.value().torn_tail) << replay.value().tail_error;
    ASSERT_EQ(replay.value().records.size(), 2u);
    for (uint64_t i = 0; i < 2; ++i) {
      const WalRecord& record = replay.value().records[i];
      EXPECT_EQ(record.epoch, i + 1);
      ASSERT_EQ(record.views.size(), 1u);
      EXPECT_EQ(SerializeView(record.views[0]), SerializeView(store_.views[i]));
    }
    EXPECT_EQ(replay.value().valid_bytes, ReadFileBytes(path_).size());
  }
}

// A fresh log whose header cannot be written must leave the writer closed,
// not half-open at a bogus offset.
TEST_F(WalTest, OpenFailsClosedWhenTheHeaderCannotBeWritten) {
  WalWriter wal;
  {
    testing::FileSizeLimit limit(kStoreHeaderBytes - 1);
    ASSERT_TRUE(limit.ok());
    EXPECT_TRUE(wal.Open(path_, 0).IsIOError());
  }
  EXPECT_FALSE(wal.is_open());
  EXPECT_EQ(wal.file_bytes(), 0u);
  EXPECT_TRUE(wal.Append(MakeRecord(1, {})).IsFailedPrecondition());
  ASSERT_TRUE(wal.Reset().ok());
  ASSERT_TRUE(wal.Append(MakeRecord(1, {store_.views[0]})).ok());
  ASSERT_TRUE(wal.Close().ok());
  auto replay = ReplayWal(path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 1u);
}

TEST_F(WalTest, GarbageFileIsRejected) {
  WriteFileBytes(path_, "this is not a WAL at all, not even close");
  EXPECT_FALSE(ReplayWal(path_).ok());
}

}  // namespace
}  // namespace gvex
