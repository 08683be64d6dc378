// Drain-under-admission harness in the chain_crash_test oracle style:
// 8 client threads admit versioned views (one label each) and read back
// over live sockets while the server is drained at enumerated acknowledg-
// ment counts. After the drain, the store is reopened via
// ViewService::Open and compared against an in-memory oracle:
//
//   * every ACKNOWLEDGED admission is recovered bit-identically (the WAL
//     runs with wal_sync_every=1 — an ack means durable);
//   * no UNACKNOWLEDGED admission beyond each thread's last attempt is
//     visible (a drain may persist the in-flight admit whose ack was
//     lost, and nothing past it);
//   * read-your-writes holds DURING serving: after an ack, the same
//     connection's `patterns` answer is byte-identical to that version.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "explain/view_io.h"
#include "net/net_test_util.h"
#include "serve/serve_protocol.h"
#include "store/store_test_util.h"
#include "util/string_util.h"

namespace gvex {
namespace {

using testing::BlockingClient;
using testing::ScratchDir;
using testing::TestServer;
using testing::TinyNetStore;
using synthetic::VersionedView;

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> codes;
  codes.reserve(patterns.size());
  for (const Pattern& p : patterns) codes.push_back(p.canonical_code());
  return codes;
}

// Oracle parity over every query kind (mirrors chain_crash_test).
void ExpectOracleParity(ViewService* recovered, ViewService* oracle) {
  ASSERT_EQ(recovered->Labels(), oracle->Labels());
  for (int label : oracle->Labels()) {
    EXPECT_EQ(Codes(recovered->PatternsForLabel(label)),
              Codes(oracle->PatternsForLabel(label)))
        << "label " << label;
    for (const Pattern& p : oracle->PatternsForLabel(label)) {
      EXPECT_EQ(recovered->GraphsWithPattern(label, p),
                oracle->GraphsWithPattern(label, p));
      EXPECT_EQ(recovered->LabelsOfPattern(p), oracle->LabelsOfPattern(p));
      EXPECT_EQ(recovered->DatabaseGraphsWithPattern(p),
                oracle->DatabaseGraphsWithPattern(p));
    }
  }
}

class DrainOracleTest : public ::testing::Test {
 protected:
  static constexpr int kThreads = 8;       // one label per admitter thread
  static constexpr int kMaxAdmits = 25;    // versions 1..kMaxAdmits

  void SetUp() override {
    store_ = TinyNetStore(91, /*num_labels=*/kThreads);
    // Pre-render, per (label, version), the exact `patterns <label>`
    // response a session must see once that version is acknowledged.
    // One shared service works because label t's answer only depends on
    // label t's state.
    ViewService render(&store_.db, ViewServiceOptions());
    expected_patterns_.resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      expected_patterns_[static_cast<size_t>(t)].resize(
          static_cast<size_t>(kMaxAdmits) + 1);
      for (int v = 1; v <= kMaxAdmits; ++v) {
        ASSERT_TRUE(render.AdmitView(VersionedView(store_, t, v)).ok());
        expected_patterns_[static_cast<size_t>(t)][static_cast<size_t>(v)] =
            ServeText(&render, StrFormat("patterns %d\n", t));
      }
    }
  }

  int ResponseLines(int t, int v) const {
    const std::string& s =
        expected_patterns_[static_cast<size_t>(t)][static_cast<size_t>(v)];
    return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
  }

  synthetic::SyntheticStore store_;
  std::vector<std::vector<std::string>> expected_patterns_;
};

TEST_F(DrainOracleTest, DrainAtEnumeratedAckCountsRecoversBitIdentical) {
  // 0 = drain before any ack; 999 = drain after everything finished.
  const int kill_points[] = {0, 3, 17, 60, 999};

  for (const int kill_at : kill_points) {
    SCOPED_TRACE(StrFormat("kill_at=%d", kill_at));
    ScratchDir dir;
    ASSERT_TRUE(dir.ok());
    ViewServiceOptions vopts;
    vopts.store.wal_sync_every = 1;  // an ack must mean durable

    std::vector<int> last_acked(kThreads, 0);
    std::vector<int> attempted(kThreads, 0);
    {
      auto opened = ViewService::Open(dir.path(), &store_.db, vopts);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      std::unique_ptr<ViewService> service = std::move(opened).value();

      TcpServerOptions sopts;
      sopts.workers = 4;
      sopts.drain_timeout_sec = 10;
      TestServer server(service.get(), sopts);
      ASSERT_TRUE(server.ok());

      std::atomic<int> total_acked{0};
      std::atomic<int> finished{0};
      std::vector<std::thread> clients;
      for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
          BlockingClient client(server.port());
          for (int v = 1; client.ok() && v <= kMaxAdmits; ++v) {
            const std::string admit =
                "admit\n" + SerializeView(VersionedView(store_, t, v));
            attempted[static_cast<size_t>(t)] = v;
            if (!client.SendAll(admit)) break;
            const std::string ack = client.RecvLines(1);
            if (!StartsWith(ack,
                            StrFormat("ok admitted %d epoch ", t))) {
              break;  // drained/closed mid-admit: stays unacknowledged
            }
            last_acked[static_cast<size_t>(t)] = v;
            total_acked.fetch_add(1);
            // Read-your-writes on the same connection: the answer must
            // be byte-identical to the version just acknowledged.
            if (!client.SendAll(StrFormat("patterns %d\n", t))) break;
            const std::string got = client.RecvLines(ResponseLines(t, v));
            if (got.empty()) break;  // drain closed us before the answer
            EXPECT_EQ(
                got,
                expected_patterns_[static_cast<size_t>(t)]
                                  [static_cast<size_t>(v)])
                << "thread " << t << " version " << v;
          }
          finished.fetch_add(1);
        });
      }

      while (total_acked.load() < kill_at && finished.load() < kThreads) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      server.server().Drain();
      for (std::thread& c : clients) c.join();
      server.server().Wait();
    }  // server gone, durable service destroyed

    // Restart from the store directory and compare to the oracle.
    auto reopened = ViewService::Open(dir.path(), &store_.db, vopts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<ViewService> recovered = std::move(reopened).value();

    ViewService oracle(&store_.db, ViewServiceOptions());
    const auto labels = recovered->Labels();
    for (int t = 0; t < kThreads; ++t) {
      const bool present =
          std::find(labels.begin(), labels.end(), t) != labels.end();
      const int acked = last_acked[static_cast<size_t>(t)];
      if (!present) {
        // Only legal when nothing was ever acknowledged for this label.
        EXPECT_EQ(acked, 0) << "acked admission for label " << t
                            << " lost by the drain";
        continue;
      }
      // The recovered version must be the last acknowledged one, or the
      // single in-flight attempt the drain may have persisted past it.
      const auto recovered_codes = Codes(recovered->PatternsForLabel(t));
      int found = -1;
      for (int v = std::max(1, acked);
           v <= attempted[static_cast<size_t>(t)]; ++v) {
        if (recovered_codes == Codes(VersionedView(store_, t, v).patterns)) {
          found = v;
          break;
        }
      }
      ASSERT_NE(found, -1)
          << "label " << t << ": recovered state matches no version in ["
          << acked << ", " << attempted[static_cast<size_t>(t)] << "]";
      ASSERT_TRUE(oracle.AdmitView(VersionedView(store_, t, found)).ok());
    }
    ExpectOracleParity(recovered.get(), &oracle);
  }
}

}  // namespace
}  // namespace gvex
