// TcpServer: the serving front end — multiplexes many concurrent TCP
// connections onto one shared ViewService.
//
//   clients ──▶ accept thread ──(round-robin fd handoff)──▶ worker loops
//                                                             │
//                 worker 0..N-1: Poller (epoll/poll, level-   ▼
//                 triggered) + wakeup pipe + NetSession map  ViewService
//
// One accept thread owns the listen socket; each accepted connection is
// handed to a worker event loop (wakeup pipe + locked queue) and stays on
// that worker for life — sessions are single-threaded, only the shared
// ViewService is touched concurrently. Concurrent admits from different
// workers coalesce in the service's single-writer admission queue, which
// is exactly where the concurrent-connection throughput win comes from.
//
// Lifecycle: Start() binds/listens/spawns and returns; the server runs
// until Drain() (idempotent — called by a host's signal-waiting thread,
// the `shutdown` verb via NetSession's on_shutdown hook, or tests).
// Draining stops the accept loop, stops reading on every session, finishes
// the requests that were fully framed before the drain, and flushes their
// responses until `drain_timeout` expires — then force-closes stragglers.
// Wait() joins everything and, for a durable service, folds everything
// admitted since the last save into ONE final Save(kAuto).
//
// Admission control: past `max_sessions` live connections, new arrivals
// get "err server full\n" and an immediate close. Per-session limits
// (write caps, framer byte limits, admit quota, idle timeout) live in
// NetSessionLimits / TcpServerOptions.

#ifndef GVEX_NET_SERVER_H_
#define GVEX_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/poller.h"
#include "net/session.h"
#include "obs/health.h"
#include "serve/serve_protocol.h"
#include "util/status.h"

namespace gvex {

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; see TcpServer::port() after Start
  int workers = 2;
  int max_sessions = 1024;       ///< live-connection cap across all workers
  double idle_timeout_sec = 0;   ///< close idle sessions (0 = never)
  double drain_timeout_sec = 5;  ///< flush budget for graceful drain
  bool save_on_drain = true;     ///< final Save(kAuto) on a durable service
  /// How often the watchdog thread checks worker heartbeats (0 disables
  /// the watchdog entirely — no thread is spawned).
  double watchdog_interval_sec = 0.5;
  /// A worker whose event loop has not stamped its heartbeat for this
  /// long is declared stalled: stall counter + flight event + rate-limited
  /// warning, and its net_worker_<i> health check reports fail until the
  /// loop ticks again.
  double watchdog_stall_sec = 5.0;
  /// Test-only: invoked by each worker at the top of every loop iteration
  /// with the worker index, BEFORE the heartbeat is stamped — a blocking
  /// hook wedges that worker exactly like a stuck request handler would.
  std::function<void(int)> worker_tick_hook;
  /// Replica hosts: the server's ServeSession hook, so the `promote` verb
  /// routes through the replica applier (stop shipping, release its LOCK,
  /// promote) instead of bare ViewService::Promote.
  std::function<Result<uint64_t>()> promote_hook;
  /// Replica hosts: the server's ServeSession lag probe; `stats` then
  /// reports replication lag.
  std::function<ReplicationLag()> lag_probe;
  NetSessionLimits session;
};

/// Monotonic counters, aggregated across workers. Session-scoped counters
/// (frames, backpressure) fold in when the session closes.
struct TcpServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_full = 0;  ///< turned away at max_sessions
  uint64_t closed = 0;
  uint64_t idle_closed = 0;
  uint64_t killed_by_backpressure = 0;
  uint64_t backpressure_engaged = 0;  ///< sessions that ever hit the soft cap
  uint64_t frames_executed = 0;
  uint64_t admits_refused = 0;   ///< quota rejections
  uint64_t watchdog_stalls = 0;  ///< stalled-loop detections across workers
};

class TcpServer {
 public:
  TcpServer() = default;
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and spawns the accept + worker threads. `service`
  /// must outlive the server; every connection talks to it.
  Status Start(ViewService* service, const TcpServerOptions& options);

  /// The bound port (resolves ephemeral port 0 requests).
  int port() const { return port_; }

  /// Begins a graceful drain (idempotent, callable from any thread —
  /// including a worker thread executing the `shutdown` verb).
  void Drain();

  /// Blocks until the server has fully stopped (someone must Drain()),
  /// then runs the final save. Idempotent.
  void Wait();

  /// Live connections right now.
  int live_sessions() const { return live_sessions_.load(); }

  TcpServerStats stats() const;

 private:
  struct Worker {
    Poller poller;
    int wake_read = -1;
    int wake_write = -1;
    std::mutex mu;
    /// (fd, accept time) pairs handed over by the accept thread — the
    /// timestamp feeds the accept→assign latency histogram.
    std::vector<std::pair<int, std::chrono::steady_clock::time_point>>
        incoming;
    std::unordered_map<int, std::unique_ptr<NetSession>> sessions;
    std::thread thread;
    /// Stamped (steady-clock ms) at the top of every loop iteration; the
    /// watchdog and the per-worker health check read it lock-free.
    std::atomic<int64_t> heartbeat_ms{0};
    std::atomic<bool> exited{false};  ///< loop returned (drain complete)
    std::atomic<bool> stalled{false};
    std::atomic<uint64_t> stalls{0};  ///< stall transitions detected
  };

  void AcceptLoop();
  void WorkerLoop(Worker* w, int index);
  void WatchdogLoop();
  /// Closes a worker-owned session, folding its counters into stats.
  void CloseSession(Worker* w, int fd);
  /// Closes every worker's wake pipe; only once no thread can write them.
  void CloseWakePipes();

  /// The one protocol session every connection shares (built by Start).
  ServeSession session_;
  TcpServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread accept_thread_;
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::vector<obs::HealthCheckHandle> health_handles_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_woken_{false};  ///< Drain() wrote every wake pipe
  std::atomic<bool> waited_{false};
  std::atomic<int64_t> drain_deadline_ms_{0};  ///< steady_clock millis
  std::atomic<int64_t> drain_start_ms_{0};     ///< 0 = never drained
  std::atomic<int> live_sessions_{0};
  std::atomic<int> next_worker_{0};

  mutable std::mutex stats_mu_;
  TcpServerStats stats_;
};

}  // namespace gvex

#endif  // GVEX_NET_SERVER_H_
