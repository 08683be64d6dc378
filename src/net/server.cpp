#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/socket.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/rate_limiter.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace gvex {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Writes one wake byte to a worker's wake pipe. The pipe is non-blocking,
// so EAGAIN means it is full and a wake is already pending; any other
// failure goes to the flight recorder.
void WakeWorker(int wake_write) {
  const char b = 1;
  ssize_t n;
  do {
    n = ::write(wake_write, &b, 1);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && errno != EAGAIN) {
    obs::RecordFlight(obs::FlightKind::kServer,
                      "wake pipe write failed: errno %d", errno);
  }
}

// Server-level net instruments, registered once per process. The live
// gauge mirrors live_sessions_ (Set after every change, so it never
// drifts from the authoritative atomic).
struct ServerInstruments {
  obs::Gauge* live;
  obs::Counter* accepted;
  obs::Counter* rejected_full;
  obs::Counter* closed;
  obs::Counter* idle_closed;
  obs::Counter* watchdog_stalls;
  obs::Histogram* accept_assign_seconds;
  obs::Histogram* drain_seconds;
};

const ServerInstruments& ServerObs() {
  static const ServerInstruments* instruments = [] {
    auto* si = new ServerInstruments();
    obs::Registry& m = obs::Metrics();
    si->live = m.GetGauge("gvex_net_live_sessions",
                          "Live TCP connections across all workers");
    si->accepted =
        m.GetCounter("gvex_net_accepted_total", "Connections accepted");
    si->rejected_full = m.GetCounter(
        "gvex_net_rejected_full_total",
        "Connections turned away at the max_sessions cap");
    si->closed = m.GetCounter("gvex_net_closed_total", "Connections closed");
    si->idle_closed = m.GetCounter("gvex_net_idle_closed_total",
                                   "Connections closed by the idle timeout");
    si->watchdog_stalls =
        m.GetCounter("gvex_watchdog_stalls_total",
                     "Worker event-loop stalls detected by the watchdog");
    si->accept_assign_seconds = m.GetHistogram(
        "gvex_net_accept_assign_seconds",
        "accept() to worker-loop adoption latency",
        obs::Unit::kNanoseconds);
    si->drain_seconds =
        m.GetHistogram("gvex_net_drain_seconds",
                       "Drain() to full stop (accept + workers joined)",
                       obs::Unit::kNanoseconds);
    return si;
  }();
  return *instruments;
}

}  // namespace

TcpServer::~TcpServer() {
  if (started_.load()) {
    Drain();
    Wait();
  }
  CloseWakePipes();  // a failed Start() may have opened some
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status TcpServer::Start(ViewService* service,
                        const TcpServerOptions& options) {
  if (started_.load()) return Status::InvalidArgument("server already started");
  if (service == nullptr) return Status::InvalidArgument("null service");
  if (options.workers < 1) return Status::InvalidArgument("workers < 1");
  session_.service = service;
  session_.promote = options.promote_hook;
  session_.lag_probe = options.lag_probe;
  options_ = options;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + ::strerror(errno));
  }
  const int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
    return Status::Internal(std::string("setsockopt SO_REUSEADDR: ") +
                            ::strerror(errno));
  }

  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " + options.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal(std::string("bind: ") + ::strerror(errno));
  }
  if (::listen(listen_fd_, 512) != 0) {
    return Status::Internal(std::string("listen: ") + ::strerror(errno));
  }
  GVEX_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  workers_.clear();
  for (int i = 0; i < options.workers; ++i) {
    auto w = std::make_unique<Worker>();
    if (!w->poller.ok()) return Status::Internal("poller init failed");
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      return Status::Internal(std::string("pipe: ") + ::strerror(errno));
    }
    w->wake_read = pipefd[0];
    w->wake_write = pipefd[1];
    GVEX_RETURN_NOT_OK(SetNonBlocking(w->wake_read));
    GVEX_RETURN_NOT_OK(SetNonBlocking(w->wake_write));
    GVEX_RETURN_NOT_OK(w->poller.Add(w->wake_read, true, false));
    // Seed the heartbeat so a worker wedged before its FIRST iteration
    // (e.g. a blocking tick hook) reads as "stalled since Start", not as
    // an absurd lag against steady-clock zero.
    w->heartbeat_ms.store(NowMs(), std::memory_order_relaxed);
    workers_.push_back(std::move(w));
  }

  const int64_t stall_ms =
      static_cast<int64_t>(options.watchdog_stall_sec * 1000.0);
  for (int i = 0; i < options.workers; ++i) {
    Worker* w = workers_[static_cast<size_t>(i)].get();
    health_handles_.push_back(obs::RegisterHealthCheck(
        "net_worker_" + std::to_string(i), [w, stall_ms] {
          obs::HealthCheckResult r;
          if (w->exited.load(std::memory_order_relaxed)) {
            r.reason = "stopped (drain complete)";
            return r;
          }
          const int64_t lag =
              NowMs() - w->heartbeat_ms.load(std::memory_order_relaxed);
          if (lag >= stall_ms) {
            r.status = obs::HealthStatus::kFail;
            r.reason = "event loop stalled (" + std::to_string(lag) +
                       " ms since heartbeat)";
          } else {
            r.reason = "heartbeat " + std::to_string(lag) + " ms ago";
          }
          return r;
        }));
  }

  started_.store(true);
  for (int i = 0; i < options.workers; ++i) {
    Worker* raw = workers_[static_cast<size_t>(i)].get();
    raw->thread = std::thread([this, raw, i] { WorkerLoop(raw, i); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.watchdog_interval_sec > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  obs::RecordFlight(obs::FlightKind::kServer,
                    "listening on port %d (%d workers)", port_,
                    options.workers);
  return Status::OK();
}

void TcpServer::WatchdogLoop() {
  obs::RateLimiter warn_limiter(5.0, 2);
  const int64_t stall_ms =
      static_cast<int64_t>(options_.watchdog_stall_sec * 1000.0);
  const auto interval = std::chrono::milliseconds(
      static_cast<int64_t>(options_.watchdog_interval_sec * 1000.0));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    if (watchdog_cv_.wait_for(lock, interval,
                              [this] { return watchdog_stop_; })) {
      break;
    }
    lock.unlock();
    const int64_t now = NowMs();
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker* w = workers_[i].get();
      if (w->exited.load(std::memory_order_relaxed)) {
        w->stalled.store(false, std::memory_order_relaxed);
        continue;
      }
      const int64_t lag =
          now - w->heartbeat_ms.load(std::memory_order_relaxed);
      if (lag >= stall_ms) {
        if (!w->stalled.exchange(true)) {
          // The flight event lands before the counters move, so whoever
          // sees a stall counted also finds its event.
          obs::RecordFlight(
              obs::FlightKind::kWatchdog,
              "worker %zu event loop stalled (%lld ms since heartbeat)", i,
              static_cast<long long>(lag));
          w->stalls.fetch_add(1, std::memory_order_release);
          ServerObs().watchdog_stalls->Add(1);
          if (warn_limiter.Allow()) {
            GVEX_LOG(kWarning)
                << "watchdog: worker " << i << " event loop stalled ("
                << lag << " ms since last heartbeat)";
          }
        }
      } else if (w->stalled.exchange(false)) {
        obs::RecordFlight(obs::FlightKind::kWatchdog,
                          "worker %zu event loop recovered", i);
      }
    }
    // One registry pass per tick so stall/recovery (and wedged-admit-
    // leader) transitions are recorded even when nobody polls `health`.
    obs::Health().Evaluate();
    lock.lock();
  }
}

void TcpServer::Drain() {
  if (!started_.load()) return;
  if (draining_.exchange(true)) return;
  drain_start_ms_.store(NowMs());
  drain_deadline_ms_.store(
      NowMs() + static_cast<int64_t>(options_.drain_timeout_sec * 1000.0));
  obs::RecordFlight(obs::FlightKind::kDrain,
                    "drain begun (%d live sessions, %.1f s budget)",
                    live_sessions_.load(), options_.drain_timeout_sec);
  // Wake every worker so the drain is noticed without waiting for a tick.
  for (auto& w : workers_) WakeWorker(w->wake_write);
  drain_woken_.store(true);
}

void TcpServer::CloseWakePipes() {
  for (auto& w : workers_) {
    if (w->wake_read >= 0) ::close(w->wake_read);
    if (w->wake_write >= 0) ::close(w->wake_write);
    w->wake_read = -1;
    w->wake_write = -1;
  }
}

void TcpServer::Wait() {
  if (!started_.load()) return;
  if (waited_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // The wake pipes outlive the loops: Drain() writes every worker's pipe,
  // possibly after that worker has left its loop, and a closed fd number
  // can be reused by an unrelated open. Workers leave only once draining_
  // is set, so the Drain() that set it is finishing its writes; let it.
  while (!drain_woken_.load()) std::this_thread::yield();
  CloseWakePipes();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // The per-worker health checks capture Worker pointers; dropping the
  // handles here (after the loops are gone, before anything else is torn
  // down) guarantees no check runs against a dead worker.
  health_handles_.clear();
  if (drain_start_ms_.load() > 0) {
    const int64_t drain_ms = NowMs() - drain_start_ms_.load();
    ServerObs().drain_seconds->ObserveSeconds(
        static_cast<double>(drain_ms) / 1e3);
    obs::RecordFlight(obs::FlightKind::kDrain,
                      "drain complete in %lld ms (workers joined)",
                      static_cast<long long>(drain_ms));
  }
  // Everything acknowledged before the drain is already published in the
  // service; one final save folds it all into the durable store.
  if (options_.save_on_drain && session_.service->durable()) {
    (void)session_.service->Save(SaveKind::kAuto);
  }
}

TcpServerStats TcpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TcpServerStats out = stats_;
  for (const auto& w : workers_) {
    out.watchdog_stalls += w->stalls.load(std::memory_order_acquire);
  }
  return out;
}

void TcpServer::AcceptLoop() {
  Poller poller;
  (void)poller.Add(listen_fd_, true, false);
  std::vector<Poller::Event> events;
  while (!draining_.load()) {
    poller.Wait(100, &events);
    if (draining_.load()) break;
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient accept error: back to poll
      }
      if (live_sessions_.load() >= options_.max_sessions) {
        // Turn the connection away with a protocol-shaped refusal so
        // clients can distinguish "full" from a network failure.
        static const char kFull[] = "err server full\n";
        (void)!::send(fd, kFull, sizeof(kFull) - 1, MSG_NOSIGNAL);
        // Count BEFORE close: a client polling stats right after it sees
        // the refusal + EOF must find the rejection already recorded.
        ServerObs().rejected_full->Add(1);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.rejected_full;
        }
        ::close(fd);
        continue;
      }
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      // Unchecked: without TCP_NODELAY the session is still correct, only
      // subject to Nagle delays, so a failure is no reason to drop it.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      live_sessions_.fetch_add(1);
      ServerObs().live->Set(live_sessions_.load());
      ServerObs().accepted->Add(1);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.accepted;
      }
      Worker* w = workers_[static_cast<size_t>(next_worker_.fetch_add(1)) %
                           workers_.size()]
                      .get();
      {
        std::lock_guard<std::mutex> lock(w->mu);
        w->incoming.emplace_back(fd, std::chrono::steady_clock::now());
      }
      WakeWorker(w->wake_write);
    }
  }
  // Close the listen socket so post-drain connects are REFUSED instead of
  // parking in the accept backlog with nobody to serve them.
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void TcpServer::CloseSession(Worker* w, int fd) {
  auto it = w->sessions.find(fd);
  if (it == w->sessions.end()) return;
  NetSession* s = it->second.get();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    if (s->killed_by_backpressure()) ++stats_.killed_by_backpressure;
    if (s->backpressure_engaged()) ++stats_.backpressure_engaged;
    stats_.frames_executed += s->frames_executed();
    stats_.admits_refused += s->admits_refused();
  }
  w->poller.Remove(fd);
  w->sessions.erase(it);  // NetSession's destructor closes the fd
  live_sessions_.fetch_sub(1);
  ServerObs().live->Set(live_sessions_.load());
  ServerObs().closed->Add(1);
}

void TcpServer::WorkerLoop(Worker* w, int index) {
  std::vector<Poller::Event> events;
  std::vector<int> to_close;
  bool drain_seen = false;
  while (true) {
    if (options_.worker_tick_hook) options_.worker_tick_hook(index);
    w->heartbeat_ms.store(NowMs(), std::memory_order_relaxed);
    w->poller.Wait(100, &events);

    // Adopt connections the accept thread handed over.
    {
      std::lock_guard<std::mutex> lock(w->mu);
      for (const auto& [fd, accepted_at] : w->incoming) {
        auto session = std::make_unique<NetSession>(
            fd, session_, options_.session, [this] { Drain(); });
        if (draining_.load()) {
          // Raced with the drain: nothing was read, close immediately.
          live_sessions_.fetch_sub(1);
          ServerObs().live->Set(live_sessions_.load());
          ServerObs().closed->Add(1);
          std::lock_guard<std::mutex> slock(stats_mu_);
          ++stats_.closed;
          continue;
        }
        if (!w->poller.Add(fd, true, false).ok()) {
          live_sessions_.fetch_sub(1);
          ServerObs().live->Set(live_sessions_.load());
          continue;
        }
        ServerObs().accept_assign_seconds->ObserveSeconds(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          accepted_at)
                .count());
        w->sessions.emplace(fd, std::move(session));
      }
      w->incoming.clear();
    }

    const bool draining = draining_.load();
    if (draining && !drain_seen) {
      drain_seen = true;
      // Finish what was fully framed before the drain; flush from here on.
      for (auto& [fd, session] : w->sessions) {
        session->BeginDrain();
        (void)w->poller.Modify(fd, false, session->wants_write());
      }
    }

    to_close.clear();
    for (const Poller::Event& ev : events) {
      if (ev.fd == w->wake_read) {
        char buf[64];
        while (::read(w->wake_read, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = w->sessions.find(ev.fd);
      if (it == w->sessions.end()) continue;
      NetSession* s = it->second.get();
      NetSession::Verdict verdict = NetSession::Verdict::kKeep;
      if (ev.error) {
        verdict = NetSession::Verdict::kClose;
      } else {
        if (ev.readable && !draining) verdict = s->HandleReadable();
        if (verdict == NetSession::Verdict::kKeep && ev.writable) {
          verdict = s->HandleWritable();
        }
      }
      if (verdict == NetSession::Verdict::kClose) {
        to_close.push_back(ev.fd);
      } else {
        (void)w->poller.Modify(ev.fd, !draining && s->wants_read(),
                               s->wants_write());
      }
    }
    for (int fd : to_close) CloseSession(w, fd);

    // Idle-timeout sweep (and, during drain, deadline enforcement).
    if (options_.idle_timeout_sec > 0 && !draining) {
      const auto cutoff =
          std::chrono::steady_clock::now() -
          std::chrono::milliseconds(
              static_cast<int64_t>(options_.idle_timeout_sec * 1000.0));
      to_close.clear();
      for (auto& [fd, session] : w->sessions) {
        if (session->last_activity() < cutoff) to_close.push_back(fd);
      }
      for (int fd : to_close) {
        CloseSession(w, fd);
        ServerObs().idle_closed->Add(1);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.idle_closed;
      }
    }

    if (draining) {
      to_close.clear();
      const bool expired = NowMs() >= drain_deadline_ms_.load();
      for (auto& [fd, session] : w->sessions) {
        if (expired || session->drained()) to_close.push_back(fd);
      }
      for (int fd : to_close) CloseSession(w, fd);
      if (w->sessions.empty()) break;
    }
  }
  // Adopt-and-close any fds that raced into the queue after the loop.
  std::lock_guard<std::mutex> lock(w->mu);
  for (const auto& [fd, accepted_at] : w->incoming) {
    (void)accepted_at;
    ::close(fd);
    live_sessions_.fetch_sub(1);
    ServerObs().live->Set(live_sessions_.load());
  }
  w->incoming.clear();
  w->exited.store(true, std::memory_order_relaxed);
}

}  // namespace gvex
