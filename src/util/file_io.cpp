#include "util/file_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace gvex {

namespace {

// "<what> <path>: <strerror>" as an IOError, or as NotFound when the path
// does not exist and the caller reports that distinctly.
Status ErrnoStatus(const char* what, const std::string& path, int err,
                   bool missing_is_not_found = false) {
  std::string msg =
      StrFormat("%s %s: %s", what, path.c_str(), std::strerror(err));
  return missing_is_not_found && err == ENOENT
             ? Status::NotFound(std::move(msg))
             : Status::IOError(std::move(msg));
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return ErrnoStatus("write", path, errno);
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  return ReadFileRange(path, 0, UINT64_MAX);
}

Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  uint64_t max_len) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno, true);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("cannot stat", path, err);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  std::string out(offset < size ? std::min(max_len, size - offset) : 0, '\0');
  size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, &out[got], out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("read", path, err);
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<size_t>(n);
  }
  ::close(fd);  // read-only: nothing buffered for close to report
  out.resize(got);
  return out;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoStatus("cannot stat", path, errno, true);
  }
  return static_cast<uint64_t>(st.st_size);
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("cannot create", tmp, errno);
  // fsync before rename: the rename must never publish an unflushed image
  // (Compact resets the WAL on the strength of a snapshot written here).
  Status st = WriteAll(fd, bytes, tmp);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp, errno);
  if (::close(fd) != 0 && st.ok()) st = ErrnoStatus("close", tmp, errno);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = ErrnoStatus("rename to", path, errno);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());  // best effort; readers ignore *.tmp anyway
    return st;
  }
  // The rename is a directory-entry mutation: without a directory fsync a
  // power loss can undo it even though the file bytes are on disk.
  return SyncParentDir(path);
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open for fsync", path, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);  // read-only: the fsync result is the one that matters
  return rc == 0 ? Status::OK() : ErrnoStatus("fsync", path, err);
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return FsyncPath(".");
  if (slash == 0) return FsyncPath("/");
  return FsyncPath(path.substr(0, slash));
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return SyncParentDir(dir);
  if (errno == EEXIST) return Status::OK();
  return ErrnoStatus("cannot create directory", dir, errno);
}

// --- AppendFile ----------------------------------------------------------

AppendFile::~AppendFile() {
  // A destructor cannot report; callers that can act on the result call
  // Close() first.
  (void)Close();
}

Status AppendFile::Open(const std::string& path, bool truncate) {
  if (is_open()) {
    return Status::FailedPrecondition("already open: " + path_);
  }
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return ErrnoStatus("cannot open", path, errno);
  path_ = path;
  return Status::OK();
}

Status AppendFile::CheckOpen() const {
  return is_open() ? Status::OK()
                   : Status::FailedPrecondition("file is not open");
}

Status AppendFile::Append(std::string_view data) {
  GVEX_RETURN_NOT_OK(CheckOpen());
  return WriteAll(fd_, data, path_);
}

Status AppendFile::Sync() {
  GVEX_RETURN_NOT_OK(CheckOpen());
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_, errno);
  return Status::OK();
}

Status AppendFile::TruncateTo(uint64_t size) {
  GVEX_RETURN_NOT_OK(CheckOpen());
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("cannot truncate", path_, errno);
  }
  return Status::OK();
}

Status AppendFile::Close() {
  if (!is_open()) return Status::OK();
  const int rc = ::close(fd_);
  fd_ = -1;
  return rc == 0 ? Status::OK() : ErrnoStatus("close", path_, errno);
}

// --- DirLock -------------------------------------------------------------

Status DirLock::TryLock(const std::string& dir) {
  Release();
  const std::string path = dir + "/LOCK";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return Status::FailedPrecondition(StrFormat(
        "store %s is locked by another process (close it, or wait for it "
        "to exit)",
        dir.c_str()));
  }
  fd_ = fd;
  return Status::OK();
}

void DirLock::Release() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock; nothing to flush
  fd_ = -1;
}

bool DirLock::held() const {
  struct stat st;
  return fd_ >= 0 && ::fstat(fd_, &st) == 0;
}

bool DirLock::WriterActive(const std::string& dir) {
  // O_CREAT here would fabricate store state in a directory a read-only
  // probe must not mutate.
  const int fd = ::open((dir + "/LOCK").c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool active = ::flock(fd, LOCK_SH | LOCK_NB) != 0;
  ::close(fd);  // also drops the shared flock, before any caller I/O
  return active;
}

}  // namespace gvex
