// util/file_io suite: reads, the atomic replace, the appender, directory
// helpers and the LOCK. The failure paths use a real failing write syscall
// (testing::FileSizeLimit), not a simulated one.

#include "util/file_io.h"

#include <gtest/gtest.h>

#include <string>

#include "store/store_test_util.h"

namespace gvex {
namespace {

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(dir_.ok()); }

  std::string Contents(const std::string& path) {
    auto bytes = ReadFile(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? bytes.value() : std::string();
  }

  testing::ScratchDir dir_;
};

TEST_F(FileIoTest, AtomicWriteFileWritesAndReplaces) {
  const std::string path = dir_.File("out.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "first\n").ok());
  EXPECT_EQ(Contents(path), "first\n");
  ASSERT_TRUE(AtomicWriteFile(path, "second\n").ok());
  EXPECT_EQ(Contents(path), "second\n");
  // No leftover temp file once the rename landed.
  EXPECT_TRUE(FileSize(path + ".tmp").status().IsNotFound());
}

TEST_F(FileIoTest, AtomicWriteFileReportsUnwritableTarget) {
  Status st = AtomicWriteFile(dir_.File("no/such/dir/out.txt"), "x");
  EXPECT_TRUE(st.IsIOError());
  EXPECT_FALSE(st.message().empty());
}

TEST_F(FileIoTest, AtomicWriteFileOverTheSizeLimitKeepsTheOldFile) {
  const std::string path = dir_.File("image");
  const std::string old_bytes(64, 'a');
  ASSERT_TRUE(AtomicWriteFile(path, old_bytes).ok());
  {
    testing::FileSizeLimit limit(100);
    ASSERT_TRUE(limit.ok());
    Status st = AtomicWriteFile(path, std::string(1000, 'b'));
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
  }
  EXPECT_EQ(Contents(path), old_bytes);
  EXPECT_TRUE(FileSize(path + ".tmp").status().IsNotFound());
}

TEST_F(FileIoTest, ReadsReportMissingFilesAsNotFound) {
  const std::string missing = dir_.File("missing");
  EXPECT_TRUE(ReadFile(missing).status().IsNotFound());
  EXPECT_TRUE(ReadFileRange(missing, 0, 8).status().IsNotFound());
  EXPECT_TRUE(FileSize(missing).status().IsNotFound());
}

TEST_F(FileIoTest, ReadFileRangeClampsAtTheEnd) {
  const std::string path = dir_.File("ten");
  ASSERT_TRUE(AtomicWriteFile(path, "0123456789").ok());
  EXPECT_EQ(ReadFileRange(path, 2, 3).value(), "234");
  EXPECT_EQ(ReadFileRange(path, 7, 100).value(), "789");
  EXPECT_EQ(ReadFileRange(path, 10, 4).value(), "");
  EXPECT_EQ(ReadFileRange(path, 50, 4).value(), "");
  EXPECT_EQ(FileSize(path).value(), 10u);
}

TEST_F(FileIoTest, AppendFileAppendsTruncatesAndReopens) {
  const std::string path = dir_.File("log");
  AppendFile file;
  ASSERT_TRUE(file.Open(path, /*truncate=*/false).ok());
  EXPECT_TRUE(file.Open(path, false).IsFailedPrecondition());
  ASSERT_TRUE(file.Append("hello ").ok());
  ASSERT_TRUE(file.Append("world").ok());
  ASSERT_TRUE(file.Sync().ok());
  EXPECT_EQ(Contents(path), "hello world");
  // After a truncate the next append lands at the new end, not in a hole.
  ASSERT_TRUE(file.TruncateTo(5).ok());
  ASSERT_TRUE(file.Append("!").ok());
  EXPECT_EQ(Contents(path), "hello!");
  ASSERT_TRUE(file.Close().ok());
  EXPECT_TRUE(file.Close().ok());  // closing twice is a no-op
  EXPECT_TRUE(file.Append("x").IsFailedPrecondition());
  EXPECT_TRUE(file.Sync().IsFailedPrecondition());
  EXPECT_TRUE(file.TruncateTo(0).IsFailedPrecondition());

  ASSERT_TRUE(file.Open(path, /*truncate=*/false).ok());
  ASSERT_TRUE(file.Append("?").ok());
  EXPECT_EQ(Contents(path), "hello!?");
  ASSERT_TRUE(file.Close().ok());
  ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
  EXPECT_EQ(Contents(path), "");
}

TEST_F(FileIoTest, AppendFileShortWriteFailsAndRollsBack) {
  const std::string path = dir_.File("log");
  AppendFile file;
  ASSERT_TRUE(file.Open(path, false).ok());
  ASSERT_TRUE(file.Append(std::string(40, 'a')).ok());
  {
    testing::FileSizeLimit limit(60);
    ASSERT_TRUE(limit.ok());
    // The write crosses the cap: the kernel takes 20 bytes, then EFBIG.
    Status st = file.Append(std::string(80, 'b'));
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_EQ(FileSize(path).value(), 60u);
    ASSERT_TRUE(file.TruncateTo(40).ok());
  }
  ASSERT_TRUE(file.Append("c").ok());
  EXPECT_EQ(Contents(path), std::string(40, 'a') + "c");
}

TEST_F(FileIoTest, EnsureDirCreatesOnceAndFsyncPathNeedsATarget) {
  const std::string sub = dir_.File("sub");
  ASSERT_TRUE(EnsureDir(sub).ok());
  ASSERT_TRUE(EnsureDir(sub).ok());  // already there
  EXPECT_TRUE(FsyncPath(sub).ok());
  EXPECT_TRUE(SyncParentDir(sub + "/file").ok());
  EXPECT_TRUE(EnsureDir(dir_.File("no/such/parent")).IsIOError());
  EXPECT_TRUE(FsyncPath(dir_.File("missing")).IsIOError());
}

TEST_F(FileIoTest, DirLockIsExclusiveAndVisibleToTheProbe) {
  // No LOCK file yet: the probe reports no writer and creates nothing.
  EXPECT_FALSE(DirLock::WriterActive(dir_.path()));
  EXPECT_TRUE(FileSize(dir_.File("LOCK")).status().IsNotFound());

  DirLock first;
  ASSERT_TRUE(first.TryLock(dir_.path()).ok());
  EXPECT_TRUE(first.held());
  EXPECT_TRUE(DirLock::WriterActive(dir_.path()));

  DirLock second;
  EXPECT_TRUE(second.TryLock(dir_.path()).IsFailedPrecondition());
  EXPECT_FALSE(second.held());

  first.Release();
  EXPECT_FALSE(first.held());
  EXPECT_FALSE(DirLock::WriterActive(dir_.path()));
  ASSERT_TRUE(second.TryLock(dir_.path()).ok());
  EXPECT_TRUE(second.held());
  EXPECT_TRUE(DirLock().TryLock(dir_.File("no/such/dir")).IsIOError());
}

}  // namespace
}  // namespace gvex
