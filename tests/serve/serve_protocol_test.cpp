#include "serve/serve_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/synthetic_store.h"
#include "store/store_test_util.h"
#include "util/string_util.h"

namespace gvex {
namespace {

std::string PatternBlock(const Pattern& p) {
  return SerializeGraph(p.graph());
}

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = synthetic::MakeSyntheticStore(21, /*num_labels=*/2);
    service_ = std::make_unique<ViewService>(&store_.db);
    ASSERT_TRUE(service_->AdmitViews(store_.views).ok());
  }

  synthetic::SyntheticStore store_;
  std::unique_ptr<ViewService> service_;
};

TEST_F(ServeProtocolTest, LabelsQuery) {
  const std::string out = ServeText(service_.get(), "labels\n");
  EXPECT_EQ(out, "ok 2\nids 0 1\n");
}

TEST_F(ServeProtocolTest, PatternsQueryRoundTrips) {
  const std::string out = ServeText(service_.get(), "patterns 0\n");
  const auto lines = Split(out, '\n');
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0],
            StrFormat("ok %zu", store_.views[0].patterns.size()));
  // Each returned pattern block parses back to the tier pattern.
  size_t pattern_count = 0;
  for (const auto& line : lines) {
    if (line == "pattern") ++pattern_count;
  }
  EXPECT_EQ(pattern_count, store_.views[0].patterns.size());
}

TEST_F(ServeProtocolTest, GraphsQueryMatchesServiceAnswer) {
  const Pattern& probe = store_.views[1].patterns[0];
  const std::string request = "graphs 1\n" + PatternBlock(probe);
  const std::string out = ServeText(service_.get(), request);
  const auto expected = service_->GraphsWithPattern(1, probe);
  std::string want = StrFormat("ok %zu\n", expected.size());
  if (!expected.empty()) {
    want += "ids";
    for (int id : expected) want += StrFormat(" %d", id);
    want += "\n";
  }
  EXPECT_EQ(out, want);
}

TEST_F(ServeProtocolTest, LabelsOfAndDbGraphsQueries) {
  const Pattern& probe = store_.views[0].patterns[0];
  std::string out = ServeText(service_.get(), "labelsof\n" + PatternBlock(probe));
  EXPECT_TRUE(StartsWith(out, "ok "));
  out = ServeText(service_.get(), "dbgraphs -1\n" + PatternBlock(probe));
  const auto expected = service_->DatabaseGraphsWithPattern(probe, -1);
  EXPECT_TRUE(StartsWith(out, StrFormat("ok %zu", expected.size())));
}

TEST_F(ServeProtocolTest, GraphsAllQueryMatchesServiceAnswer) {
  const Pattern& a = store_.views[0].patterns.front();
  const Pattern& b = store_.views[0].patterns.back();
  const std::string request =
      "graphsall 0 2\n" + PatternBlock(a) + PatternBlock(b);
  const std::string out = ServeText(service_.get(), request);
  const auto expected = service_->GraphsWithAllPatterns(0, {a, b});
  std::string want = StrFormat("ok %zu\n", expected.size());
  if (!expected.empty()) {
    want += "ids";
    for (int id : expected) want += StrFormat(" %d", id);
    want += "\n";
  }
  EXPECT_EQ(out, want);
}

TEST_F(ServeProtocolTest, GraphsAllWithZeroPatternsListsEveryGraph) {
  const std::string out = ServeText(service_.get(), "graphsall 0 0\n");
  std::string want =
      StrFormat("ok %zu\nids", store_.views[0].subgraphs.size());
  for (const auto& s : store_.views[0].subgraphs) {
    want += StrFormat(" %d", s.graph_index);
  }
  want += "\n";
  EXPECT_EQ(out, want);
}

TEST_F(ServeProtocolTest, GraphsAllWithoutCountIsAnErrorAndRecovers) {
  const std::string out =
      ServeText(service_.get(), "graphsall 0\ngraphsall 0 nope\nlabels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_TRUE(StartsWith(lines[1], "err "));
  EXPECT_EQ(lines[2], "ok 2");  // the stream stayed in sync
}

TEST_F(ServeProtocolTest, McsQueryReportsBestCommonSubgraph) {
  // A whole explanation subgraph as the query: the answer must match the
  // service API verbatim (its own subgraph gives a full-size hit).
  const Graph& query = store_.views[0].subgraphs[0].subgraph;
  const McsAnswer want = service_->MaxCommonSubgraph(0, query);
  EXPECT_GE(want.size, 1);
  const std::string out =
      ServeText(service_.get(), "mcs 0\n" + SerializeGraph(query));
  EXPECT_EQ(out, StrFormat("ok mcs graph %d size %d exact %d\n",
                           want.graph_index, want.size, want.exact ? 1 : 0));
}

TEST_F(ServeProtocolTest, McsAcceptsDisconnectedQueries) {
  // Two isolated nodes — Pattern::Create would reject this; mcs must not.
  Graph query;
  query.AddNode(0);
  query.AddNode(1);
  const McsAnswer want = service_->MaxCommonSubgraph(0, query);
  const std::string out =
      ServeText(service_.get(), "mcs 0\n" + SerializeGraph(query));
  EXPECT_EQ(out, StrFormat("ok mcs graph %d size %d exact %d\n",
                           want.graph_index, want.size, want.exact ? 1 : 0));
}

TEST_F(ServeProtocolTest, McsUnknownLabelAnswersNoGraph) {
  Graph query;
  query.AddNode(0);
  const std::string out =
      ServeText(service_.get(), "mcs 99\n" + SerializeGraph(query));
  EXPECT_EQ(out, "ok mcs graph -1 size 0 exact 1\n");
}

TEST_F(ServeProtocolTest, McsBadRequestsConsumeTheirBlockAndRecover) {
  Graph query;
  query.AddNode(0);
  const std::string out = ServeText(
      service_.get(), "mcs nope\n" + SerializeGraph(query) + "labels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_EQ(lines[1], "ok 2");  // block swallowed, stream in sync
}

TEST_F(ServeProtocolTest, AdmitPublishesView) {
  const uint64_t before = service_->epoch();
  ExplanationView view = store_.views[0];
  view.label = 5;
  const std::string out =
      ServeText(service_.get(), "admit\n" + SerializeView(view));
  EXPECT_EQ(out, StrFormat("ok admitted 5 epoch %llu\n",
                           static_cast<unsigned long long>(before + 1)));
  EXPECT_EQ(service_->Labels(), (std::vector<int>{0, 1, 5}));
}

TEST_F(ServeProtocolTest, StatsAndQuit) {
  bool quit = false;
  const std::string out =
      ServeText(service_.get(), "stats\nquit\nlabels\n", &quit);
  EXPECT_TRUE(quit);
  EXPECT_TRUE(StartsWith(out, "ok stats epoch 1 labels 2"));
  // Nothing after quit is served.
  EXPECT_NE(out.find("ok bye\n"), std::string::npos);
  EXPECT_EQ(out.find("ids 0 1"), std::string::npos);
}

TEST_F(ServeProtocolTest, StatsReportsAdmissionCountersFromOneSnapshot) {
  // The fixture admitted one batch of two views: the stats line carries
  // the admission counters published WITH that epoch (torn mid-batch
  // counts are impossible — see StatsAreConsistentUnderBatchedAdmission
  // in view_service_test for the concurrent pinning).
  std::string out = ServeText(service_.get(), "stats\n");
  EXPECT_NE(out.find("epoch 1 labels 2"), std::string::npos) << out;
  EXPECT_NE(out.find("admitted 2 batches 1"), std::string::npos) << out;
  // Another single-view admission: views 3, batches 2.
  ExplanationView view = store_.views[0];
  view.label = 7;
  out = ServeText(service_.get(),
                  "admit\n" + SerializeView(view) + "stats\n");
  EXPECT_NE(out.find("admitted 3 batches 2"), std::string::npos) << out;
}

TEST_F(ServeProtocolTest, StatsReportsCacheCountersAndHitRate) {
  // A fresh service has seen no cacheable lookups: rate is 0, not NaN.
  std::string out = ServeText(service_.get(), "stats\n");
  EXPECT_NE(out.find("cache_hits 0 cache_misses 0 hit_rate 0.0000"),
            std::string::npos)
      << out;
  // The same containment query twice: one miss filling the cache, then
  // one hit — a 50% rate.
  const Pattern& probe = store_.views[0].patterns[0];
  const std::string query = "graphs 0\n" + PatternBlock(probe);
  out = ServeText(service_.get(), query + query + "stats\n");
  EXPECT_NE(out.find("cache_hits 1 cache_misses 1 hit_rate 0.5000"),
            std::string::npos)
      << out;
  // A third repetition: 2 hits / 1 miss.
  out = ServeText(service_.get(), query + "stats\n");
  EXPECT_NE(out.find("cache_hits 2 cache_misses 1 hit_rate 0.6667"),
            std::string::npos)
      << out;
}

TEST_F(ServeProtocolTest, MalformedRequestsRecover) {
  // Unknown keyword, missing label, bad label, then a valid query — the
  // stream recovers after each error.
  const std::string out = ServeText(
      service_.get(), "frobnicate\npatterns\npatterns x\nlabels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_TRUE(StartsWith(lines[1], "err "));
  EXPECT_TRUE(StartsWith(lines[2], "err "));
  EXPECT_EQ(lines[3], "ok 2");
}

TEST_F(ServeProtocolTest, BadLabelConsumesPayloadBlock) {
  // A 'graphs' request with a bad label must still swallow its pattern
  // block — the block's lines must never be re-parsed as requests.
  const Pattern& probe = store_.views[0].patterns[0];
  const std::string out = ServeText(
      service_.get(), "graphs nope\n" + PatternBlock(probe) + "labels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_EQ(lines[1], "ok 2");  // the stream stayed in sync
}

TEST_F(ServeProtocolTest, UnterminatedBlockIsAnError) {
  const std::string out =
      ServeText(service_.get(), "labelsof\ngraph 1 0\nn 0 0\n");
  EXPECT_TRUE(StartsWith(out, "err "));
}

TEST_F(ServeProtocolTest, SaveAndCompactRequireAStore) {
  // The fixture's service is in-memory: the store verbs answer errors but
  // the stream keeps serving.
  const std::string out =
      ServeText(service_.get(), "save\ncompact\nlabels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_TRUE(StartsWith(lines[1], "err "));
  EXPECT_EQ(lines[2], "ok 2");
}

TEST_F(ServeProtocolTest, OpenSaveCompactRoundTripThroughSession) {
  testing::ScratchDir dir;
  ASSERT_TRUE(dir.ok());

  // A durable service over an empty store: admit views, save and compact.
  auto opened = ViewService::Open(dir.path(), &store_.db);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ViewService> durable = std::move(opened).value();
  EXPECT_TRUE(durable->durable());
  EXPECT_EQ(durable->epoch(), 0u);
  EXPECT_TRUE(durable->Labels().empty());
  ServeSession session;
  session.service = durable.get();

  std::string out =
      ServeText(session, "admit\n" + SerializeView(store_.views[0]));
  EXPECT_TRUE(StartsWith(out, "ok admitted 0 epoch 1")) << out;
  out = ServeText(session, "save\n");
  EXPECT_EQ(out, "ok saved epoch 1 full\n");  // no base yet: policy goes full
  out = ServeText(session, "admit\n" + SerializeView(store_.views[1]));
  EXPECT_TRUE(StartsWith(out, "ok admitted 1 epoch 2")) << out;
  // One of two labels changed since the base: the size policy picks a
  // delta; forcing --full still writes a whole snapshot.
  out = ServeText(session, "save --delta\n");
  EXPECT_EQ(out, "ok saved epoch 2 delta\n");
  // The epoch is already persisted by the chain — nothing to write.
  out = ServeText(session, "save\n");
  EXPECT_EQ(out, "ok saved epoch 2 noop\n");
  out = ServeText(session, "save --full\n");
  EXPECT_EQ(out, "ok saved epoch 2 full\n");
  out = ServeText(session, "save --sideways\n");
  EXPECT_TRUE(StartsWith(out, "err ")) << out;
  // Conflicting flags must not silently resolve to the first one.
  out = ServeText(session, "save --delta --full\n");
  EXPECT_TRUE(StartsWith(out, "err ")) << out;
  out = ServeText(session, "compact\n");
  EXPECT_EQ(out, "ok compacted epoch 2\n");

  // A second service re-opens the directory and sees the recovered store:
  // both labels, epoch 2. The first service must release the store first —
  // one writer per directory (the store lock).
  EXPECT_FALSE(ViewService::Open(dir.path(), &store_.db).ok());
  durable.reset();
  auto reopened = ViewService::Open(dir.path(), &store_.db);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  out = ServeText(reopened.value().get(), "labels\nstats\n");
  EXPECT_NE(out.find("ids 0 1"), std::string::npos) << out;
  EXPECT_NE(out.find("epoch 2 labels 2"), std::string::npos) << out;
  // Admission counters are process-lifetime (like cache counters): the
  // warm-started service restarts them at 0 despite its recovered epoch.
  EXPECT_NE(out.find("admitted 0 batches 0"), std::string::npos) << out;
}

TEST_F(ServeProtocolTest, AdmitRejectsUnlabeledView) {
  ExplanationView view = store_.views[0];
  view.label = -1;
  const std::string out =
      ServeText(service_.get(), "admit\n" + SerializeView(view));
  EXPECT_TRUE(StartsWith(out, "err "));
  EXPECT_EQ(service_->epoch(), 1u);
}

// Regression for the untrusted-numeric hardening: malformed numerics in
// payload blocks once escaped std::stoi/std::stod as uncaught exceptions
// (a remote crash once payloads arrive over a socket). Every one must
// answer "err ..." and leave the stream alive and in sync.
TEST_F(ServeProtocolTest, MalformedNumericPayloadsAnswerErrAndKeepStream) {
  const std::string out = ServeText(
      service_.get(),
      "admit\nview abc 0.5 0 0\nendview\n"            // label not an int
      "admit\nview 0 1e 0 0\nendview\n"               // bad explainability
      "labelsof\ngraph 2 0\nn 0 zero\nn 1 0\nend\n"    // bad node type
      "graphsall 0 nope\n"                            // bad count, no block
      "labels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 5u);
  EXPECT_TRUE(StartsWith(lines[0], "err "));
  EXPECT_TRUE(StartsWith(lines[1], "err "));
  EXPECT_TRUE(StartsWith(lines[2], "err "));
  EXPECT_TRUE(StartsWith(lines[3], "err "));
  EXPECT_EQ(lines[4], "ok 2");  // the stream stayed alive and in sync
  EXPECT_EQ(service_->epoch(), 1u);  // nothing published
}

// A stream that ENDS inside a payload block answers "err unterminated",
// never a half-executed request — the distinction the incremental TCP
// framer relies on (a truncated admit must not publish).
TEST_F(ServeProtocolTest, StreamEndingMidBlockAnswersErrNotPartialExecute) {
  // graphs: header + partial graph block, no "end".
  std::string out =
      ServeText(service_.get(), "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\n");
  EXPECT_TRUE(StartsWith(out, "err ")) << out;
  EXPECT_NE(out.find("unterminated"), std::string::npos) << out;
  // admit: header + partial view block, no "endview" — must not publish.
  out = ServeText(service_.get(), "admit\nview 7 0.5 0 1\npattern\n");
  EXPECT_TRUE(StartsWith(out, "err ")) << out;
  EXPECT_NE(out.find("unterminated"), std::string::npos) << out;
  EXPECT_EQ(service_->epoch(), 1u);
  const auto labels = service_->Labels();
  EXPECT_TRUE(std::find(labels.begin(), labels.end(), 7) == labels.end());
}

// ---------------------------------------------------------------------------
// Observability verbs (metrics / trace / traces) + stats uptime fields

TEST_F(ServeProtocolTest, StatsReportsUptimeAndStartEpoch) {
  const std::string out = ServeText(service_.get(), "stats\n");
  const auto words = SplitWhitespace(out);
  // ... hit_rate X uptime_sec Y started_unix Z role R — appended at the
  // end so prefix-checking clients keep working (`role` trails them; the
  // session stats overload may append lag fields after it in turn).
  ASSERT_GE(words.size(), 6u);
  EXPECT_EQ(words[words.size() - 6], "uptime_sec");
  EXPECT_EQ(words[words.size() - 4], "started_unix");
  EXPECT_EQ(words[words.size() - 2], "role");
  EXPECT_EQ(words[words.size() - 1], "primary");
  double uptime = -1;
  ASSERT_TRUE(ParseDouble(words[words.size() - 5], &uptime));
  EXPECT_GE(uptime, 0.0);
  double started = 0;
  ASSERT_TRUE(ParseDouble(words[words.size() - 3], &started));
  // A sane Unix epoch (after 2020-01-01, i.e. the clock isn't garbage).
  EXPECT_GT(started, 1577836800.0);
}

TEST_F(ServeProtocolTest, MetricsVerbExportsWellFormedText) {
  // Serve a couple of requests first so per-verb families exist.
  ServeText(service_.get(), "labels\nstats\n");
  const std::string out = ServeText(service_.get(), "metrics\n");
  const auto lines = Split(out, '\n');
  ASSERT_FALSE(lines.empty());
  ASSERT_TRUE(StartsWith(lines[0], "ok metrics ")) << lines[0];
  // The advertised line count frames the body exactly.
  int advertised = 0;
  ASSERT_TRUE(ParseInt(SplitWhitespace(lines[0])[2], &advertised));
  const std::string body = out.substr(out.find('\n') + 1);
  EXPECT_EQ(static_cast<int>(std::count(body.begin(), body.end(), '\n')),
            advertised);

  std::string error;
  EXPECT_TRUE(obs::ValidateMetricsText(body, &error)) << error;
  // Per-verb request counters, service-level counters folded from stats,
  // and process gauges are all present.
  EXPECT_FALSE(obs::ParseMetricFamily(body, "gvex_requests_total").empty());
  EXPECT_FALSE(obs::ParseMetricFamily(body, "gvex_service_epoch").empty());
  EXPECT_FALSE(
      obs::ParseMetricFamily(body, "gvex_process_uptime_seconds").empty());
  EXPECT_NE(body.find("# TYPE gvex_request_seconds histogram"),
            std::string::npos);
}

TEST_F(ServeProtocolTest, MetricsCountsItself) {
  ServeText(service_.get(), "metrics\n");  // ensure the family exists
  const std::string first = ServeText(service_.get(), "metrics\n");
  const std::string second = ServeText(service_.get(), "metrics\n");
  const auto strip = [](const std::string& out) {
    return out.substr(out.find('\n') + 1);
  };
  const double a = obs::ParseMetricFamily(strip(first),
                                          "gvex_requests_total")["metrics"];
  const double b = obs::ParseMetricFamily(strip(second),
                                          "gvex_requests_total")["metrics"];
  // Each scrape renders BEFORE its own count lands, so the next scrape
  // sees at least one more metrics request (other suites may add more).
  EXPECT_GE(b, a + 1.0);
}

TEST_F(ServeProtocolTest, TraceVerbTogglesSamplingAndRecovers) {
  obs::SetTraceSampleEvery(0);
  std::string out = ServeText(service_.get(), "trace on 5\n");
  EXPECT_EQ(out, "ok trace on 5\n");
  EXPECT_EQ(obs::TraceSampleEvery(), 5);

  // Bare "trace on" keeps a previously-set period.
  out = ServeText(service_.get(), "trace on\n");
  EXPECT_EQ(out, "ok trace on 5\n");

  out = ServeText(service_.get(), "trace off\n");
  EXPECT_EQ(out, "ok trace off\n");
  EXPECT_EQ(obs::TraceSampleEvery(), 0);

  // Parse errors answer "err ..." and leave the stream in sync.
  out = ServeText(service_.get(),
                  "trace\ntrace sideways\ntrace on x\ntrace on 0\n"
                  "trace off now\nlabels\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(StartsWith(lines[i], "err ")) << lines[i];
  }
  EXPECT_EQ(lines[5], "ok 2");
  EXPECT_EQ(obs::TraceSampleEvery(), 0);
}

TEST_F(ServeProtocolTest, TracesVerbDumpsTheRing) {
  obs::TraceSpans spans;
  spans.verb = "labels";
  spans.frame_us = 1.5;
  spans.queue_us = 0.25;
  spans.execute_us = 10.0;
  spans.flush_us = 2.0;
  obs::GlobalTraceRing().Record(spans);

  const std::string out = ServeText(service_.get(), "traces\n");
  const auto lines = Split(out, '\n');
  ASSERT_GE(lines.size(), 2u);
  ASSERT_TRUE(StartsWith(lines[0], "ok traces ")) << lines[0];
  int count = 0;
  ASSERT_TRUE(ParseInt(SplitWhitespace(lines[0])[2], &count));
  ASSERT_GE(count, 1);
  // Our record is in there, with every span labeled.
  bool found = false;
  for (const auto& line : lines) {
    if (line.find("trace labels frame_us 1.5 queue_us 0.2 "
                  "execute_us 10.0 flush_us 2.0") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << out;
}

}  // namespace
}  // namespace gvex
