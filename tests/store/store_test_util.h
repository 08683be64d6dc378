// File-system helpers for the store and file-I/O suites: a scratch
// directory under the system temp root, recursively removed at scope exit,
// and a file-size cap that makes write syscalls really fail.

#ifndef GVEX_TESTS_STORE_STORE_TEST_UTIL_H_
#define GVEX_TESTS_STORE_STORE_TEST_UTIL_H_

#include <dirent.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace gvex {
namespace testing {

class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/gvex_store_test.XXXXXX";
    char* made = mkdtemp(tmpl);
    path_ = made != nullptr ? made : "";
  }
  ~ScratchDir() {
    if (!path_.empty()) RemoveAll(path_);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return !path_.empty(); }

  /// Path of a file inside the scratch directory.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  static void RemoveAll(const std::string& dir) {
    if (DIR* d = ::opendir(dir.c_str())) {
      while (struct dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        const std::string child = dir + "/" + name;
        if (std::remove(child.c_str()) != 0) RemoveAll(child);
      }
      ::closedir(d);
    }
    (void)::rmdir(dir.c_str());
  }

  std::string path_;
};

/// Caps how large any write may grow a file (RLIMIT_FSIZE) with SIGXFSZ
/// ignored: a write that crosses the cap comes back short and the next one
/// fails with EFBIG — a write syscall that really fails, as root too. The
/// previous limit and signal disposition come back at scope exit. The cap
/// is process-wide, so hold it only around the calls under test.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(uint64_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0) return;
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    if (saved_handler_ == SIG_ERR) return;
    struct rlimit cap = saved_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    active_ = true;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~FileSizeLimit() {
    if (!active_) return;
    // Both restore values the constructor read back from the kernel, so
    // neither can be refused.
    (void)::setrlimit(RLIMIT_FSIZE, &saved_);
    (void)std::signal(SIGXFSZ, saved_handler_);
  }

  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  struct rlimit saved_ = {};
  void (*saved_handler_)(int) = SIG_DFL;
  bool active_ = false;
  bool ok_ = false;
};

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_STORE_STORE_TEST_UTIL_H_
