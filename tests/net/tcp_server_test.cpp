// TcpServer behavior suite: protocol parity with the stdin path over a
// live socket, pipelining, the `shutdown` verb's graceful drain, the
// per-session admission quota, the live-connection cap, and an in-process
// loadgen round trip gating on zero response divergence.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "explain/view_io.h"
#include "net/loadgen.h"
#include "net/net_test_util.h"
#include "net/socket.h"
#include "net/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_protocol.h"
#include "util/string_util.h"

namespace gvex {
namespace {

using testing::BlockingClient;
using testing::NormalizeUptime;
using testing::TestServer;
using testing::TinyNetStore;

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override { store_ = TinyNetStore(29, /*num_labels=*/3); }

  std::unique_ptr<ViewService> FreshService() {
    auto service =
        std::make_unique<ViewService>(&store_.db, ViewServiceOptions());
    auto views = store_.views;
    EXPECT_TRUE(service->AdmitViews(std::move(views)).ok());
    return service;
  }

  synthetic::SyntheticStore store_;
};

// Every request kind over the socket answers byte-identically to the
// stdin path (ServeText on an identical service).
TEST_F(TcpServerTest, MixedRequestsMatchStdinPath) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  SyntheticWorkloadOptions wopts;
  wopts.read_weight = 1.0;
  const auto mix = BuildSyntheticMix(store_, wopts);
  ASSERT_FALSE(mix.empty());

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  for (const LoadgenRequest& r : mix) {
    ASSERT_TRUE(client.SendAll(r.text));
    EXPECT_EQ(client.RecvLines(r.expect_lines), r.expect);
  }
}

// Fifty pipelined requests written in one segment come back in order.
TEST_F(TcpServerTest, PipelinedRequestsAnswerInOrder) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  std::string stream;
  std::string expected;
  auto oracle_service = FreshService();
  for (int i = 0; i < 50; ++i) {
    stream += "labels\nstats\n";
  }
  expected = ServeText(oracle_service.get(), stream);

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll(stream));
  client.ShutdownWrite();
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));
  // stats lines carry uptime_sec, which may tick between the two runs.
  EXPECT_EQ(NormalizeUptime(got), NormalizeUptime(expected));
}

// The `shutdown` verb: acknowledged, then the server drains — in-flight
// responses flush, connections close, Wait() returns, and new connects
// are refused.
TEST_F(TcpServerTest, ShutdownVerbDrainsServer) {
  auto service = FreshService();
  auto server = std::make_unique<TestServer>(service.get());
  ASSERT_TRUE(server->ok());
  const int port = server->port();

  BlockingClient client(port);
  ASSERT_TRUE(client.ok());
  // Pipelined work BEFORE the shutdown must still be answered.
  ASSERT_TRUE(client.SendAll("labels\nshutdown\n"));
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));
  auto oracle_service = FreshService();
  EXPECT_EQ(got,
            ServeText(oracle_service.get(), "labels\n") + "ok draining\n");

  server->server().Wait();
  BlockingClient refused(port);
  EXPECT_FALSE(refused.ok());
  server.reset();
}

// Per-session admission quota: admits past the quota answer "err ..."
// without touching the service, and the session keeps serving reads.
TEST_F(TcpServerTest, AdmitQuotaRefusesExcessAdmits) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.session.admit_quota = 2;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());

  const std::string admit =
      "admit\n" + SerializeView(synthetic::VersionedView(store_, 0, 0));
  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.SendAll(admit));
    EXPECT_TRUE(StartsWith(client.RecvLines(1), "ok admitted 0 epoch "));
  }
  const uint64_t epoch_after_two = service->epoch();
  ASSERT_TRUE(client.SendAll(admit));
  EXPECT_EQ(client.RecvLines(1), "err admission quota exhausted\n");
  EXPECT_EQ(service->epoch(), epoch_after_two);

  // The quota is per session: a fresh connection admits again.
  BlockingClient fresh(server.port());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.SendAll(admit));
  EXPECT_TRUE(StartsWith(fresh.RecvLines(1), "ok admitted 0 epoch "));
}

// Past max_sessions, new connections get "err server full" and a close;
// existing sessions are unaffected.
TEST_F(TcpServerTest, MaxSessionsRejectsWithServerFull) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.max_sessions = 2;
  opts.workers = 1;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());

  BlockingClient a(server.port());
  BlockingClient b(server.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Round-trip both so they are counted before the third connect.
  ASSERT_TRUE(a.SendAll("stats\n"));
  ASSERT_TRUE(StartsWith(a.RecvLines(1), "ok stats"));
  ASSERT_TRUE(b.SendAll("stats\n"));
  ASSERT_TRUE(StartsWith(b.RecvLines(1), "ok stats"));

  BlockingClient c(server.port());
  ASSERT_TRUE(c.ok());
  std::string got;
  ASSERT_TRUE(c.RecvUntilClosed(&got));
  EXPECT_EQ(got, "err server full\n");
  EXPECT_GE(server.server().stats().rejected_full, 1u);

  // The earlier sessions still serve.
  ASSERT_TRUE(a.SendAll("labels\n"));
  EXPECT_TRUE(StartsWith(a.RecvLines(1), "ok "));
}

// In-process loadgen round trip: concurrent pipelined connections over a
// mixed read/admit/stats workload finish with ZERO divergences.
TEST_F(TcpServerTest, LoadgenMixedWorkloadZeroDivergence) {
  auto service = FreshService();
  TcpServerOptions sopts;
  sopts.workers = 4;
  TestServer server(service.get(), sopts);
  ASSERT_TRUE(server.ok());

  SyntheticWorkloadOptions wopts;
  wopts.read_weight = 0.7;
  wopts.admit_weight = 0.2;
  wopts.stats_weight = 0.1;
  const auto mix = BuildSyntheticMix(store_, wopts);

  LoadgenOptions lopts;
  lopts.port = server.port();
  lopts.connections = 16;
  lopts.requests_per_conn = 40;
  lopts.pipeline_depth = 4;
  lopts.seed = 7;
  auto report = RunLoadgen(lopts, mix);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().requests, 16u * 40u);
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_EQ(report.value().divergences, 0u);
  EXPECT_EQ(report.value().aborted_connections, 0u);
  EXPECT_GT(report.value().qps, 0.0);

  server.server().Drain();
  server.server().Wait();
  EXPECT_GE(server.server().stats().frames_executed, 16u * 40u);
}

// Trace mode over a live socket: `trace on 1` samples every request, the
// session records frame/queue/execute/flush spans as responses flush, and
// `traces` dumps them. Requests go one-at-a-time so each response is
// flushed (completing its spans) before the dump executes.
TEST_F(TcpServerTest, TraceSpansRecordedOverSocket) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  obs::GlobalTraceRing().Clear();
  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll("trace on 1\n"));
  EXPECT_EQ(client.RecvLines(1), "ok trace on 1\n");
  ASSERT_TRUE(client.SendAll("labels\n"));
  client.RecvLines(2);
  ASSERT_TRUE(client.SendAll("stats\n"));
  client.RecvLines(1);

  ASSERT_TRUE(client.SendAll("traces\n"));
  const std::string header = client.RecvLines(1);
  ASSERT_TRUE(StartsWith(header, "ok traces ")) << header;
  int count = 0;
  ASSERT_TRUE(ParseInt(SplitWhitespace(header)[2], &count));
  ASSERT_GE(count, 2) << "labels + stats spans should have completed";
  const std::string body = client.RecvLines(count);
  EXPECT_NE(body.find("trace labels "), std::string::npos) << body;
  EXPECT_NE(body.find("trace stats "), std::string::npos) << body;
  // Every dumped record carries all four spans.
  for (const auto& line : Split(body, '\n')) {
    if (line.empty()) continue;
    EXPECT_TRUE(StartsWith(line, "trace ")) << line;
    EXPECT_NE(line.find(" frame_us "), std::string::npos) << line;
    EXPECT_NE(line.find(" queue_us "), std::string::npos) << line;
    EXPECT_NE(line.find(" execute_us "), std::string::npos) << line;
    EXPECT_NE(line.find(" flush_us "), std::string::npos) << line;
  }

  ASSERT_TRUE(client.SendAll("trace off\n"));
  EXPECT_EQ(client.RecvLines(1), "ok trace off\n");
  EXPECT_EQ(obs::TraceSampleEvery(), 0);
}

// The --scrape contract in-process: the server's per-verb
// gvex_requests_total deltas across a loadgen run equal the client's own
// completed response counts, and the export validates. (The registry is
// process-global, so deltas — not absolute values — are compared.)
TEST_F(TcpServerTest, ScrapeCrossCheckMatchesClientCounts) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  SyntheticWorkloadOptions wopts;
  wopts.read_weight = 0.8;
  wopts.admit_weight = 0.1;
  wopts.stats_weight = 0.1;
  // Build the mix BEFORE the baseline scrape: rendering expected
  // responses drives a mirror service through ServeText, which records
  // into the same process-global registry.
  const auto mix = BuildSyntheticMix(store_, wopts);

  auto baseline = FetchMetrics("127.0.0.1", server.port());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  LoadgenOptions lopts;
  lopts.port = server.port();
  lopts.connections = 8;
  lopts.requests_per_conn = 32;
  lopts.pipeline_depth = 4;
  lopts.seed = 11;
  auto report = RunLoadgen(lopts, mix);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().aborted_connections, 0u);
  ASSERT_FALSE(report.value().responses_by_verb.empty());

  auto final_text = FetchMetrics("127.0.0.1", server.port());
  ASSERT_TRUE(final_text.ok()) << final_text.status().ToString();
  std::string error;
  EXPECT_TRUE(obs::ValidateMetricsText(final_text.value(), &error)) << error;

  const auto before =
      obs::ParseMetricFamily(baseline.value(), "gvex_requests_total");
  const auto after =
      obs::ParseMetricFamily(final_text.value(), "gvex_requests_total");
  uint64_t client_total = 0;
  for (const auto& [verb, count] : report.value().responses_by_verb) {
    double delta = 0;
    auto it = after.find(verb);
    if (it != after.end()) delta = it->second;
    auto bit = before.find(verb);
    if (bit != before.end()) delta -= bit->second;
    EXPECT_EQ(static_cast<uint64_t>(delta + 0.5), count)
        << "verb " << verb << " server/client count divergence";
    client_total += count;
  }
  EXPECT_EQ(client_total, report.value().requests);
}

// A port that is bound but not listening refuses connections; holding the
// bound socket keeps another process from taking the port meanwhile.
TEST(ConnectTcpTest, NoListenerIsAnError) {
  const int bound = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(bound, 0);
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(bound, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(bound, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  const Result<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kIOError);
  if (fd.ok()) ::close(fd.value());
  ::close(bound);
}

TEST(ConnectTcpTest, NonNumericHostIsInvalid) {
  const Result<int> fd = ConnectTcp("localhost", 1);
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gvex
