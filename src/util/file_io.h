// File I/O for the durable store, in one place. Every decision that makes a
// file durable — tmp naming, fsync before rename, the parent-directory
// fsync, rollback after a short write, LOCK ownership — is made here and
// used by the WAL and snapshot store, the replica applier and the
// observability dumps. It sits in util because obs sits below store.
//
// Error model: a path that does not exist is NotFound on the read side
// (ReadFile, ReadFileRange, FileSize); every other failure is an IOError
// carrying the path and strerror(errno).
//
// Thread-safety: free functions are safe from any thread; AppendFile and
// DirLock are not internally synchronized.

#ifndef GVEX_UTIL_FILE_IO_H_
#define GVEX_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gvex {

/// All of `path`, as sized when it was opened.
Result<std::string> ReadFile(const std::string& path);

/// Up to `max_len` bytes of `path` starting at `offset`: fewer at the end
/// of the file, empty past it.
Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  uint64_t max_len);

/// The size of `path` in bytes.
Result<uint64_t> FileSize(const std::string& path);

/// Replaces `path` with `bytes` atomically: write all of it to
/// `<path>.tmp`, fsync, rename over `path`, then fsync the parent
/// directory. A crash at any point leaves the old file or the new one,
/// never a mix; a failure before the rename leaves the old file untouched
/// and removes the tmp file. Readers of a store directory must ignore
/// `*.tmp` names (a crash can still strand one).
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// fsyncs the file or directory at `path`. A directory fsync makes its
/// entry mutations (a rename into it, a newly created file) durable, which
/// a file-content fsync does not cover.
Status FsyncPath(const std::string& path);

/// FsyncPath on the directory containing `path`.
Status SyncParentDir(const std::string& path);

/// Creates `dir` (one level) when it does not exist, and makes the new
/// entry durable before anything fsynced inside it can be.
Status EnsureDir(const std::string& dir);

/// An append-only file descriptor (O_APPEND): every Append reaches the
/// kernel before it returns, so a process crash loses nothing that
/// returned OK; only Sync makes it survive power loss.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens `path` for appending, creating it (mode 0644) when missing;
  /// `truncate` empties an existing file. FailedPrecondition when this
  /// handle is already open.
  Status Open(const std::string& path, bool truncate);

  /// Writes all of `data`, retrying short writes and EINTR. On an error
  /// part of `data` may have reached the file; TruncateTo rolls it back.
  Status Append(std::string_view data);

  /// fsyncs the file.
  Status Sync();

  /// Cuts the file to `size` bytes; later appends land at the new end.
  Status TruncateTo(uint64_t size);

  /// Closes the descriptor and returns what close reported. OK when
  /// nothing is open.
  Status Close();

  bool is_open() const { return fd_ >= 0; }

 private:
  /// FailedPrecondition unless a file is open.
  Status CheckOpen() const;

  int fd_ = -1;
  std::string path_;
};

/// Ownership of a store directory: an exclusive, non-blocking flock on
/// `<dir>/LOCK`, held until Release or destruction. flock is advisory, so
/// every writer entry point must take it.
class DirLock {
 public:
  DirLock() = default;
  ~DirLock() { Release(); }

  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  /// Takes `<dir>/LOCK`, creating the file when missing. IOError when it
  /// cannot be opened; FailedPrecondition when another holder has it.
  Status TryLock(const std::string& dir);

  void Release();

  /// Whether the lock is held and its descriptor still valid.
  bool held() const;

  /// The read-only writer probe: true when another process holds
  /// `<dir>/LOCK` exclusively. Takes and drops a shared flock without
  /// waiting, and never creates the file (a missing LOCK means no writer
  /// ever opened the directory).
  static bool WriterActive(const std::string& dir);

 private:
  int fd_ = -1;
};

}  // namespace gvex

#endif  // GVEX_UTIL_FILE_IO_H_
