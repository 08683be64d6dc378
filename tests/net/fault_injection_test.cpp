// Socket-level fault injection: the three client misbehaviors the front
// end must survive without leaking state or starving its neighbors.
//
//   slow loris      — a header then silence: the idle timeout closes it.
//   mid-payload cut — disconnect inside an admit's view block: the
//                     partial frame is discarded, nothing publishes.
//   never-reading   — a client that pipelines forever but never drains
//                     responses: the write soft cap pauses the session
//                     (bounded memory) while OTHER sessions' latency
//                     stays bounded; a response overshooting the hard
//                     cap kills the connection outright.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "net/net_test_util.h"
#include "obs/metrics.h"
#include "serve/serve_protocol.h"
#include "util/string_util.h"

namespace gvex {
namespace {

using testing::BlockingClient;
using testing::TestServer;
using testing::TinyNetStore;

// Current value of an unlabeled counter in the process-wide registry (0
// when it has not been registered yet).
double RegistryCounter(const std::string& name) {
  const std::map<std::string, double> fam =
      obs::ParseMetricFamily(obs::Metrics().RenderPrometheus(), name);
  auto it = fam.find("");
  return it == fam.end() ? 0.0 : it->second;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { store_ = TinyNetStore(31, /*num_labels=*/3); }

  std::unique_ptr<ViewService> FreshService() {
    auto service =
        std::make_unique<ViewService>(&store_.db, ViewServiceOptions());
    auto views = store_.views;
    EXPECT_TRUE(service->AdmitViews(std::move(views)).ok());
    return service;
  }

  synthetic::SyntheticStore store_;
};

// Slow loris: a request header followed by silence. The idle timeout
// must close the connection — it cannot hold a session slot forever.
TEST_F(FaultInjectionTest, SlowLorisClosedByIdleTimeout) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.idle_timeout_sec = 0.3;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());

  BlockingClient loris(server.port());
  ASSERT_TRUE(loris.ok());
  // Header of a framed request whose payload never comes.
  ASSERT_TRUE(loris.SendAll("graphs 0\n"));
  const auto t0 = std::chrono::steady_clock::now();
  std::string got;
  ASSERT_TRUE(loris.RecvUntilClosed(&got, /*timeout_sec=*/5.0))
      << "idle timeout never fired";
  EXPECT_EQ(got, "");  // the incomplete frame was never executed
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 4.0);
  server.server().Drain();
  server.server().Wait();
  EXPECT_GE(server.server().stats().idle_closed, 1u);
  // The registry's idle-close counter moved with the per-server stat.
  EXPECT_GE(RegistryCounter("gvex_net_idle_closed_total"), 1.0);
}

// Disconnect in the middle of an admit's view block: the partial frame is
// discarded, the admission never publishes, and the epoch is untouched.
TEST_F(FaultInjectionTest, MidPayloadDisconnectNeverPublishes) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());
  const uint64_t epoch_before = service->epoch();
  const auto labels_before = service->Labels();

  {
    BlockingClient cut(server.port());
    ASSERT_TRUE(cut.ok());
    // A valid admit, truncated inside the view block (no "endview").
    const std::string full =
        "admit\nview 7 0.5 0 1\nsubgraph 0 0.5 1 0\nnodes 0 1\n";
    ASSERT_TRUE(cut.SendAll(full));
    cut.Close();
  }

  // A healthy connection proves the service state is untouched. Its
  // round trip also sequences after the server processed the EOF above
  // (same worker pool; stats is served from the published snapshot).
  BlockingClient check(server.port());
  ASSERT_TRUE(check.ok());
  ASSERT_TRUE(check.SendAll("stats\n"));
  const std::string stats_line = check.RecvLines(1);
  EXPECT_TRUE(
      StartsWith(stats_line, StrFormat("ok stats epoch %llu ",
                                       static_cast<unsigned long long>(
                                           epoch_before))))
      << stats_line;
  EXPECT_EQ(service->epoch(), epoch_before);
  EXPECT_EQ(service->Labels(), labels_before);
}

// Never-reading client: pipelines thousands of requests and never drains
// its responses. The soft cap must pause that session (backpressure),
// and a concurrent well-behaved session must keep answering quickly.
TEST_F(FaultInjectionTest, NeverReadingClientIsPausedOthersStayFast) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.workers = 2;
  opts.session.write_soft_cap = 2 << 10;  // tiny, so the test is fast
  opts.session.write_hard_cap = 1 << 20;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());

  BlockingClient hog(server.port());
  ASSERT_TRUE(hog.ok());
  // ~6000 pipelined requests; the responses overflow the soft cap many
  // times over, but the hog never reads a byte.
  std::string burst;
  for (int i = 0; i < 6000; ++i) burst += "labels\n";
  ASSERT_TRUE(hog.SendAll(burst));

  // Other sessions answer promptly while the hog is parked.
  auto oracle_service = FreshService();
  const std::string expected = ServeText(oracle_service.get(), "labels\n");
  for (int i = 0; i < 20; ++i) {
    BlockingClient polite(server.port());
    ASSERT_TRUE(polite.ok());
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(polite.SendAll("labels\n"));
    EXPECT_EQ(polite.RecvLines(2, /*timeout_sec=*/5.0), expected);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(ms, 2000.0) << "request " << i << " starved";
  }

  hog.Close();
  server.server().Drain();
  server.server().Wait();
  const TcpServerStats stats = server.server().stats();
  EXPECT_GE(stats.backpressure_engaged, 1u);
  EXPECT_EQ(stats.killed_by_backpressure, 0u);  // soft cap, not the axe
}

// A single response overshooting the hard cap kills the connection (the
// axe): the session cannot buffer unboundedly for a dead-weight peer.
TEST_F(FaultInjectionTest, HardCapKillsConnection) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.session.write_soft_cap = 64;
  opts.session.write_hard_cap = 256;
  const double kills_before =
      RegistryCounter("gvex_net_backpressure_kills_total");
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());

  BlockingClient greedy(server.port());
  ASSERT_TRUE(greedy.ok());
  // The patterns response (several graph blocks) far exceeds 256 bytes.
  ASSERT_TRUE(greedy.SendAll("patterns 0\n"));
  std::string got;
  ASSERT_TRUE(greedy.RecvUntilClosed(&got, /*timeout_sec=*/5.0))
      << "hard cap never closed the connection";

  server.server().Drain();
  server.server().Wait();
  EXPECT_GE(server.server().stats().killed_by_backpressure, 1u);
  // The kill also lands in the metrics plane, as exactly one increment.
  EXPECT_EQ(RegistryCounter("gvex_net_backpressure_kills_total"),
            kills_before + 1.0);
}

}  // namespace
}  // namespace gvex
