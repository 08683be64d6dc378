// Shared helpers for the TCP front-end suites: an in-process server over
// a synthetic store, and a deadline-guarded blocking client. Every recv
// has a timeout so a server bug shows up as a test failure, never a hang.

#ifndef GVEX_TESTS_NET_NET_TEST_UTIL_H_
#define GVEX_TESTS_NET_NET_TEST_UTIL_H_

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>

#include "net/server.h"
#include "net/socket.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"

namespace gvex {
namespace testing {

/// Small synthetic store (cheap index rebuilds — these suites admit a lot).
inline synthetic::SyntheticStore TinyNetStore(uint64_t seed, int num_labels) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = num_labels;
  opt.graphs_per_label = 3;
  opt.patterns_per_label = 6;
  opt.min_nodes = 6;
  opt.max_nodes = 10;
  return synthetic::MakeSyntheticStore(seed, opt);
}

/// stats responses carry a wall-clock field (uptime_sec) that ticks
/// between an oracle run and a served run; masks its value so
/// byte-for-byte comparisons stay deterministic. started_unix is
/// process-constant and stays as it is.
inline std::string NormalizeUptime(std::string text) {
  size_t pos = 0;
  while ((pos = text.find("uptime_sec ", pos)) != std::string::npos) {
    const size_t start = pos + 11;
    size_t end = start;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    text.replace(start, end - start, "X");
    pos = start;
  }
  return text;
}

/// In-process TcpServer over a caller-owned ViewService, ephemeral port.
class TestServer {
 public:
  /// Starts (or reports failure through ok()). `options.port` is forced
  /// to 0 — tests never bind fixed ports.
  explicit TestServer(ViewService* service,
                      TcpServerOptions options = TcpServerOptions()) {
    options.port = 0;
    ok_ = server_.Start(service, options).ok();
  }
  ~TestServer() {
    server_.Drain();
    server_.Wait();
  }

  bool ok() const { return ok_; }
  int port() const { return server_.port(); }
  TcpServer& server() { return server_; }

 private:
  TcpServer server_;
  bool ok_ = false;
};

/// Blocking client socket with deadline-guarded reads.
class BlockingClient {
 public:
  explicit BlockingClient(int port) {
    Result<int> fd = ConnectTcp("127.0.0.1", port);
    if (fd.ok()) fd_ = fd.value();
  }
  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until `n` complete lines are buffered; returns them (with
  /// newlines). Empty string on timeout or a closed connection.
  std::string RecvLines(int n, double timeout_sec = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int64_t>(timeout_sec * 1000));
    while (CountLines() < n) {
      if (!PumpUntil(deadline)) return "";
    }
    size_t pos = 0;
    for (int i = 0; i < n; ++i) pos = buf_.find('\n', pos) + 1;
    std::string out = buf_.substr(0, pos);
    buf_.erase(0, pos);
    return out;
  }

  /// Reads until the server closes the connection; returns everything
  /// received (including previously buffered bytes). Empty-and-false on
  /// timeout.
  bool RecvUntilClosed(std::string* out, double timeout_sec = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int64_t>(timeout_sec * 1000));
    while (true) {
      const int got = PumpOnce(deadline);
      if (got < 0) return false;           // timeout
      if (got == 0) break;                 // closed
    }
    *out = buf_;
    buf_.clear();
    return true;
  }

  /// Half-close: no more bytes from us, keep reading.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int CountLines() const {
    return static_cast<int>(std::count(buf_.begin(), buf_.end(), '\n'));
  }

  /// One recv bounded by `deadline`: >0 bytes read, 0 = peer closed,
  /// -1 = deadline passed.
  int PumpOnce(std::chrono::steady_clock::time_point deadline) {
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return -1;
      struct pollfd p;
      p.fd = fd_;
      p.events = POLLIN;
      p.revents = 0;
      const int ready =
          ::poll(&p, 1, static_cast<int>(std::min<int64_t>(
                            left.count(), 100)));
      if (ready < 0 && errno != EINTR) return -1;
      if (ready <= 0) continue;
      char tmp[16384];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return -1;
      if (n == 0) return 0;
      buf_.append(tmp, static_cast<size_t>(n));
      return static_cast<int>(n);
    }
  }

  bool PumpUntil(std::chrono::steady_clock::time_point deadline) {
    return PumpOnce(deadline) > 0;
  }

  int fd_ = -1;
  std::string buf_;
};

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_NET_NET_TEST_UTIL_H_
