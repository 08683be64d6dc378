// Watchdog suite: a deliberately wedged worker event loop (via the
// test-only tick hook) must be detected — stall counter, watchdog flight
// event, net_worker health check failing — and must recover cleanly when
// released. Also pins the drain-robustness contract: the final metrics
// dump lands even when the drain times out and force-closes sessions.
// Runs in the --tsan lane: the hook/watchdog handshake is all mutex+cv.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/net_test_util.h"
#include "obs/dump.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "serve/serve_protocol.h"
#include "util/file_io.h"

namespace gvex {
namespace {

using testing::BlockingClient;
using testing::TinyNetStore;

// Blocks worker 0 inside its tick hook while `wedged` holds.
class WorkerWedge {
 public:
  std::function<void(int)> Hook() {
    return [this](int worker) {
      if (worker != 0) return;
      std::unique_lock<std::mutex> lock(mu_);
      while (wedged_) cv_.wait(lock);
    };
  }
  void Wedge() {
    std::lock_guard<std::mutex> lock(mu_);
    wedged_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      wedged_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool wedged_ = false;
};

// Polls `pred` until true or the deadline; returns its final value.
bool PollFor(const std::function<bool()>& pred, double timeout_sec = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(timeout_sec * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Current value of an unlabeled counter in the process-wide registry (0
// when it has not been registered yet).
double RegistryCounter(const std::string& name) {
  const std::map<std::string, double> fam =
      obs::ParseMetricFamily(obs::Metrics().RenderPrometheus(), name);
  auto it = fam.find("");
  return it == fam.end() ? 0.0 : it->second;
}

// Latest status of the named health check, or -1 when absent.
int HealthCheckStatus(const std::string& name) {
  const obs::HealthReport report = obs::Health().Evaluate();
  for (const obs::HealthCheckRow& row : report.checks) {
    if (row.name == name) return static_cast<int>(row.status);
  }
  return -1;
}

TEST(WatchdogTest, WedgedWorkerIsDetectedAndRecovers) {
  synthetic::SyntheticStore store = TinyNetStore(31, 2);
  ViewService service(&store.db, ViewServiceOptions());

  WorkerWedge wedge;
  TcpServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.watchdog_interval_sec = 0.02;
  opts.watchdog_stall_sec = 0.3;
  opts.worker_tick_hook = wedge.Hook();

  TcpServer server;
  ASSERT_TRUE(server.Start(&service, opts).ok());
  ASSERT_TRUE(PollFor(
      [] { return HealthCheckStatus("net_worker_0") ==
                  static_cast<int>(obs::HealthStatus::kOk); }));

  const uint64_t flight_baseline = obs::Flight().recorded();
  wedge.Wedge();

  // Stall detection: counter, flight event, failing health check.
  EXPECT_TRUE(PollFor(
      [&server] { return server.stats().watchdog_stalls >= 1; }));
  EXPECT_TRUE(PollFor([] {
    return HealthCheckStatus("net_worker_0") ==
           static_cast<int>(obs::HealthStatus::kFail);
  }));
  bool stall_event = false;
  for (const obs::FlightEvent& ev : obs::Flight().Dump()) {
    if (ev.seq > flight_baseline && ev.kind == obs::FlightKind::kWatchdog &&
        ev.text.find("worker 0") != std::string::npos &&
        ev.text.find("stalled") != std::string::npos) {
      stall_event = true;
    }
  }
  EXPECT_TRUE(stall_event);
  // Worker 1 keeps serving while worker 0 is wedged.
  EXPECT_EQ(HealthCheckStatus("net_worker_1"),
            static_cast<int>(obs::HealthStatus::kOk));

  // Recovery: health flips back and a recovery flight event lands; the
  // stall count does not keep growing for the same incident.
  wedge.Release();
  EXPECT_TRUE(PollFor([] {
    return HealthCheckStatus("net_worker_0") ==
           static_cast<int>(obs::HealthStatus::kOk);
  }));
  EXPECT_TRUE(PollFor([flight_baseline] {
    for (const obs::FlightEvent& ev : obs::Flight().Dump()) {
      if (ev.seq > flight_baseline &&
          ev.kind == obs::FlightKind::kWatchdog &&
          ev.text.find("worker 0") != std::string::npos &&
          ev.text.find("recovered") != std::string::npos) {
        return true;
      }
    }
    return false;
  }));
  const uint64_t stalls = server.stats().watchdog_stalls;
  EXPECT_GE(stalls, 1u);

  server.Drain();
  server.Wait();
  // The per-worker health checks unregister in Wait().
  EXPECT_EQ(HealthCheckStatus("net_worker_0"), -1);
  EXPECT_EQ(server.stats().watchdog_stalls, stalls);
}

TEST(WatchdogTest, DrainLifecycleRecordsFlightEvents) {
  synthetic::SyntheticStore store = TinyNetStore(37, 2);
  ViewService service(&store.db, ViewServiceOptions());
  TcpServerOptions opts;
  opts.port = 0;
  opts.watchdog_interval_sec = 0;  // watchdog off: drain events only

  const uint64_t baseline = obs::Flight().recorded();
  {
    TcpServer server;
    ASSERT_TRUE(server.Start(&service, opts).ok());
    server.Drain();
    server.Wait();
  }
  bool begun = false;
  bool complete = false;
  for (const obs::FlightEvent& ev : obs::Flight().Dump()) {
    if (ev.seq <= baseline || ev.kind != obs::FlightKind::kDrain) continue;
    if (ev.text.find("drain begun") != std::string::npos) begun = true;
    if (ev.text.find("drain complete") != std::string::npos) complete = true;
  }
  EXPECT_TRUE(begun);
  EXPECT_TRUE(complete);
}

// The forced-drain final dump: a client that never reads keeps its session
// unflushable, the drain deadline force-closes it, and the final metrics
// export must STILL be written — reflecting the post-drain close counts.
TEST(WatchdogTest, FinalMetricsDumpSurvivesForcedDrain) {
  synthetic::SyntheticStore store = TinyNetStore(41, 2);
  ViewService service(&store.db, ViewServiceOptions());
  // Admitted views make the `patterns` responses big enough to overflow
  // the kernel socket buffer and engage backpressure.
  ASSERT_TRUE(service.AdmitViews(store.views).ok());
  TcpServerOptions opts;
  opts.port = 0;
  opts.workers = 1;
  opts.drain_timeout_sec = 0.3;
  opts.watchdog_interval_sec = 0;
  // Tiny soft cap: the never-reading client below parks its session with
  // unflushed responses, so the drain deadline must force-close it.
  opts.session.write_soft_cap = 2 << 10;

  char tmpl[] = "/tmp/gvex_drain_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dump_path = std::string(tmpl) + "/metrics.txt";

  uint64_t closed_at_dump = 0;
  {
    TcpServer server;
    ASSERT_TRUE(server.Start(&service, opts).ok());
    // Long interval: the periodic thread never fires — only Final() can
    // write the file, which is exactly the property under test.
    obs::PeriodicDumper dumper(3600.0, [&] {
      closed_at_dump = server.stats().closed;
      EXPECT_TRUE(
          AtomicWriteFile(dump_path, RenderMetricsText(service)).ok());
    });

    // Baseline BEFORE the client exists: the pause can land any time
    // after SendAll, and the per-server stat only folds in at close, so
    // the live registry counter is the only race-free signal.
    const double pauses_before =
        RegistryCounter("gvex_net_backpressure_pauses_total");

    BlockingClient client(server.port());
    ASSERT_TRUE(client.ok());
    // Pipelined requests whose responses the client never reads; enough
    // volume to overflow the kernel socket buffer and hit the soft cap.
    std::string burst;
    for (int i = 0; i < 6000; ++i) burst += "patterns 0\n";
    ASSERT_TRUE(client.SendAll(burst));
    // Wait until the session is genuinely parked with unflushed bytes —
    // draining before the accept even landed would test nothing.
    ASSERT_TRUE(PollFor([pauses_before] {
      return RegistryCounter("gvex_net_backpressure_pauses_total") >
             pauses_before;
    }));

    server.Drain();
    server.Wait();
    dumper.Final();
    client.Close();
  }

  std::ifstream f(dump_path);
  ASSERT_TRUE(f.good()) << "final dump missing after forced drain";
  const std::string body((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  std::string error;
  EXPECT_TRUE(obs::ValidateMetricsText(body, &error)) << error;
  EXPECT_NE(body.find("gvex_net_closed_total"), std::string::npos);
  // The dump ran after Wait(): the force-closed session is in the counts.
  EXPECT_GE(closed_at_dump, 1u);

  ::unlink(dump_path.c_str());
  ::unlink((dump_path + ".tmp").c_str());
  ::rmdir(tmpl);
}

}  // namespace
}  // namespace gvex
