// Differential oracle for the text parsers: the production request parser
// reads patterns, graphs and views in place through one LineCursor. It
// must agree with the verbatim split-join-split copy in
// serve/parse_reference.h on every request the synthetic net workload
// generates (net/workload.cpp) and on a malformed corpus — the same
// accepted and rejected requests, the same error text, the same parsed
// objects (SerializeView / SerializeGraph bytes plus every float and
// double bit) and the same stream position after each request. ParseGraphs
// and ParseViews over whole texts are held to their copies the same way.
//
// The one intended difference is left out of the corpus: a node line past
// the graph's declared node count is now rejected at that line, where the
// copy waited for 'end' (or, given a feature, wrote past its buffer).
// GraphIoTest pins the new message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "net/net_test_util.h"
#include "net/workload.h"
#include "serve/parse_reference.h"
#include "serve/serve_protocol.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gvex {
namespace {

namespace ref = testing::parse_reference;

std::string StatusText(const Status& st) {
  return StrFormat("status %d %s", static_cast<int>(st.code()),
                   st.message().c_str());
}

// SerializeGraph rounds features to 6 digits; add their exact bits.
std::string GraphBits(const Graph& g) {
  std::string out = SerializeGraph(g);
  const Matrix& x = g.features();
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) out += StrFormat(" %a", x.at(r, c));
  }
  return out + "\n";
}

std::string ViewBits(const ExplanationView& v) {
  std::string out = SerializeView(v) + StrFormat("bits %a", v.explainability);
  for (const Pattern& p : v.patterns) {
    out += " " + p.canonical_code() + " " + GraphBits(p.graph());
  }
  for (const ExplanationSubgraph& s : v.subgraphs) {
    out += StrFormat(" %a ", s.explainability) + GraphBits(s.subgraph);
  }
  return out + "\n";
}

// Everything a parsed request carries, or its error.
std::string Render(const Result<ServeRequest>& r) {
  if (!r.ok()) return StatusText(r.status());
  const ServeRequest& q = r.value();
  std::string out = StrFormat(
      "kind %d label %d save %d trace %d %d repl %d %s %llu %llu\n",
      static_cast<int>(q.kind), q.label, static_cast<int>(q.save_kind),
      q.trace_on ? 1 : 0, q.trace_sample, static_cast<int>(q.repl_op),
      q.repl_name.c_str(), static_cast<unsigned long long>(q.repl_offset),
      static_cast<unsigned long long>(q.repl_len));
  out += "pattern " + q.pattern.canonical_code() + "\n" +
         GraphBits(q.pattern.graph());
  for (const Pattern& p : q.patterns) {
    out += "patterns " + p.canonical_code() + "\n" + GraphBits(p.graph());
  }
  out += "query\n" + GraphBits(q.query_graph);
  out += "view\n" + ViewBits(q.view);
  return out;
}

std::string RenderGraphs(const Result<std::vector<LabeledGraph>>& r) {
  if (!r.ok()) return StatusText(r.status());
  std::string out;
  for (const LabeledGraph& lg : r.value()) {
    out += StrFormat("label %d\n", lg.label) + GraphBits(lg.graph);
  }
  return out;
}

std::string RenderViews(const Result<std::vector<ExplanationView>>& r) {
  if (!r.ok()) return StatusText(r.status());
  std::string out;
  for (const ExplanationView& v : r.value()) out += ViewBits(v);
  return out;
}

// True when some graph block holds more node lines than its header
// declares (or declares an outsized count): the inputs the copy cannot
// safely parse. Over-approximates, which only shrinks the corpus.
bool HasExcessNodes(const std::string& text) {
  bool active = false;
  int declared = 0;
  int nodes = 0;
  for (const std::string& raw : Split(text, '\n')) {
    const std::vector<std::string> tok = SplitWhitespace(raw);
    if (tok.empty()) continue;
    if (tok[0] == "graph") {
      active = tok.size() >= 2 && ref::ParseInt(tok[1], &declared);
      if (active && declared > 1000) return true;
      nodes = 0;
    } else if (tok[0] == "n" && active && ++nodes > declared) {
      return true;
    } else if (tok[0] == "end") {
      active = false;
    }
  }
  return false;
}

struct Tally {
  int requests_ok = 0;
  int requests_err = 0;
};

// Parses `text` request by request with the copy, the cursor parser and
// the vector adapter; every step must agree, position included.
void ExpectSameRequests(const std::string& text, Tally* tally) {
  const std::vector<std::string> lines = Split(text, '\n');
  size_t ref_pos = 0;
  size_t adapter_pos = 0;
  LineCursor cursor(text);
  for (int step = 0; step <= static_cast<int>(lines.size()); ++step) {
    const auto want = ref::ParseServeRequest(lines, &ref_pos);
    const auto got = ParseServeRequest(&cursor);
    const auto adapted = ParseServeRequest(lines, &adapter_pos);
    const std::string expected = Render(want);
    ASSERT_EQ(Render(got), expected) << "request " << step << " of:\n"
                                     << text;
    ASSERT_EQ(Render(adapted), expected) << "request " << step << " of:\n"
                                         << text;
    ASSERT_EQ(cursor.lines_read(), ref_pos) << text;
    ASSERT_EQ(adapter_pos, ref_pos) << text;
    if (!want.ok() && want.status().code() == StatusCode::kNotFound) return;
    ++(want.ok() ? tally->requests_ok : tally->requests_err);
  }
  FAIL() << "parser did not reach the end of:\n" << text;
}

void ExpectSameDocuments(const std::string& text) {
  ASSERT_EQ(RenderGraphs(ParseGraphs(text)),
            RenderGraphs(ref::ParseGraphs(text)))
      << text;
  ASSERT_EQ(RenderViews(ParseViews(text)), RenderViews(ref::ParseViews(text)))
      << text;
}

class ParseOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = testing::TinyNetStore(23, /*num_labels=*/3);
    SyntheticWorkloadOptions wopts;
    wopts.read_weight = 1.0;
    wopts.admit_weight = 1.0;
    wopts.stats_weight = 1.0;
    wopts.save_weight = 1.0;
    for (const LoadgenRequest& r : BuildSyntheticMix(store_, wopts)) {
      requests_.push_back(r.text);
    }
    // Verbs the mix does not send, over the same payloads.
    const ExplanationView& v = store_.views[0];
    const std::string pattern = SerializeGraph(v.patterns[0].graph());
    requests_.push_back("labelsof\n" + pattern);
    requests_.push_back("dbgraphs -1\n" + pattern);
    requests_.push_back("dbgraphs 1\n" + pattern);
    requests_.push_back("mcs 0\n" + SerializeGraph(v.subgraphs[0].subgraph));
    requests_.push_back("discriminative 1\n");
    requests_.push_back("graphsall 1 0\n");
    // A view whose subgraph carries features, admitted.
    ExplanationView featured = v;
    Graph& sub = featured.subgraphs[0].subgraph;
    EXPECT_TRUE(sub.SetOneHotFeaturesFromTypes(8).ok());
    requests_.push_back("admit\n" + SerializeView(featured));
    for (const char* r :
         {"metrics\n", "traces\n", "health\n", "events\n", "trace on\n",
          "trace on 5\n", "trace off\n", "save --delta\n", "save --full\n",
          "compact\n", "replicate state\n", "replicate fetch wal 0 10\n",
          "replicate crc wal 12\n", "promote\n", "quit\n"}) {
      requests_.push_back(r);
    }
  }

  synthetic::SyntheticStore store_;
  std::vector<std::string> requests_;
};

TEST_F(ParseOracleTest, EveryWorkloadRequestParsesAlike) {
  Tally tally;
  std::string all;
  for (const std::string& r : requests_) {
    ExpectSameRequests(r, &tally);
    all += r;
  }
  // One pipelined stream, and the same without its final newline.
  ExpectSameRequests(all, &tally);
  ExpectSameRequests(all.substr(0, all.size() - 1), &tally);
  EXPECT_EQ(tally.requests_err, 0);
  EXPECT_GT(tally.requests_ok, 40);
}

TEST_F(ParseOracleTest, MalformedCorpusParsesAlike) {
  std::vector<std::string> corpus = {
      "", "\n", "   \n\t\n", "bogus\n", "labels extra words\n",
      "patterns\n", "patterns 1x\n", "patterns +1\n", "patterns -0\n",
      "patterns 99999999999\n", "graphs 0\n", "graphs x\ngraph 1 0\nn 0 0\nend\n",
      "graphs 0\ngraph 1 0\nn 0 0\n", "graphs 0\ngraph 1 0\nn 0 0\nend x\n",
      "graphs 0\ngraph 1 0\nn 0 0\nend x\ngraph 1 0\nn 0 0\nend\n",
      "graphs 0\ngraph 1 0\nn 0 0\nend x\nbogus\nend\n",
      "graphs 0\n# comment\n\ngraph 1 0 7\n  n 0 3  \nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\nend\n",  // disconnected
      "graphs 0\ngraph 0 0\nend\n",                 // empty pattern
      "graphs 0\nend\n", "graphs 0\ngraph 1\nend\n",
      "graphs 0\ngraph 1 0 +2\nn 0 0\nend\n",
      "graphs 0\ngraph 1 0\nn 0 0 0.5 1e-40 nan -inf 0x1p3\nend\n",
      "graphs 0\ngraph 1 0\nn 0 0 1e999\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\ne 0 1\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\ne 0 1 2 9\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\ne 0 0 1\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 1 0\ne 0 1\ne 1 0\nend\n",
      "graphs 0\ngraph 2 1\nn 0 0\nn 1 0\ne 0 1\ne 1 0\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nn 2 0\nend\n",
      "graphs 0\ngraph 2 0\ngraph 2 0\nend\n",
      "graphs 0\nn 0 0\nend\n", "graphs 0\ngraph -1 0\nend\n",
      "graphs 0\ngraph 2 0\nn 0 0\nend\n",
      "graphs 0\r\ngraph 1 0\r\nn 0 0\r\nend\r\n",
      "graphsall 0\n", "graphsall 0 nope\n", "graphsall 0 -1\n",
      "graphsall 0 2\ngraph 1 0\nn 0 0\nend\n",
      "graphsall x 1\ngraph 1 0\nn 0 0\nend\n",
      "graphsall 0 2\ngraph 1 0\nbad\nend\ngraph 1 0\nn 0 0\nend\n",
      "mcs 0\ngraph 0 0\nend\n", "mcs\ngraph 1 0\nn 0 0\nend\n",
      "mcs 0\ngraph 2 0\nn 0 0\nn 1 0\nend\n", "mcs 0\ngraph 1 0\nn 0 0\n",
      "labelsof\ngraph 2 zero\nend\n", "labelsof\n",
      "admit\n", "admit\nendview\n", "admit\n\nfoo\nendview\n",
      "admit\nview abc 0.5 0 0\nendview\n", "admit\nview 0 1e 0 0\nendview\n",
      "admit\nview 0 0.5 0 0\nendview\n", "admit\nview 0 0.5 0 0\n",
      "admit\nview 0 0.5 1 0\nendview\n",
      "admit\nview 0 0.5 1 0\npattern\ngraph 1 0\nn 0 0\nendview\n",
      "admit\nview 0 0.5 0 1\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 1 0.5\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 1\nnodes 0\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph zero 0.5 1 0\nnodes 0\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 0 0.5\nnodes 0 nope\n"
      "graph 1 0\nn 0 0\nend\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 0 0.5\nnodes\n"
      "graph 1 0\nn 0 0\nend\nendview\n",
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 0 0.5 extra\nnodes 0 +1\n"
      "graph 1 0\nn 0 0\nend\nendview extra\nendview\n",
      "admit\nview 0 0.5 0 0\nview 1 0.5 0 0\nendview\n",
      "admit\nview 0 0.5 0 0 x\n  endview  \n",
      "save --delta --full\n", "save --bogus\n", "trace\n", "trace maybe\n",
      "trace off 3\n", "trace on 0\n", "trace on 2 3\n", "trace on x\n",
      "replicate\n", "replicate state now\n", "replicate fetch wal 0\n",
      "replicate fetch wal -1 5\n", "replicate fetch wal +1 5\n",
      "replicate fetch wal 1 18446744073709551616\n", "replicate crc wal\n",
      "replicate crc wal +-1\n", "replicate bogus\n", "open dir\n",
      "shutdown\n",
  };
  // NUL bytes inside fields that error messages quote.
  static const char kNulFeature[] = "graphs 0\ngraph 1 0\nn 0 0 1\0x\nend\n";
  static const char kNulDirective[] = "graphs 0\nbo\0gus\nend\n";
  static const char kNulNodeId[] =
      "admit\nview 0 0.5 0 1\nsubgraph 0 1 0 0.5\nnodes 0 1\0\n"
      "graph 1 0\nn 0 0\nend\nendview\n";
  corpus.emplace_back(kNulFeature, sizeof(kNulFeature) - 1);
  corpus.emplace_back(kNulDirective, sizeof(kNulDirective) - 1);
  corpus.emplace_back(kNulNodeId, sizeof(kNulNodeId) - 1);
  Tally tally;
  for (const std::string& text : corpus) {
    ASSERT_FALSE(HasExcessNodes(text)) << text;
    ExpectSameRequests(text, &tally);
    ExpectSameDocuments(text);
    // Every prefix ending mid-request, too.
    for (size_t cut = 0; cut < text.size(); cut += 3) {
      ExpectSameRequests(text.substr(0, cut), &tally);
    }
  }
  EXPECT_GT(tally.requests_err, 100);
}

// Seeded random damage to real requests: dropped, doubled, swapped and
// injected lines, fields replaced by garbage, CRs and padding, and
// truncation anywhere.
TEST_F(ParseOracleTest, MutatedRequestsParseAlike) {
  const std::vector<std::string> garbage = {
      "x", "-1", "+1", "0", "1", "2", "3", "1e5", "99999999999", "nan",
      "0x1", "", "end", "endview", "pattern", "#", "graph", "n", "e",
      "nodes", "subgraph", "view", "-", "+", "1.5", "inf", " ", "\t"};
  Rng rng(7);
  Tally tally;
  int compared = 0;
  while (compared < 3000) {
    std::string text;
    const int parts = 1 + static_cast<int>(rng.NextUint(3));
    for (int p = 0; p < parts; ++p) {
      text += requests_[rng.NextUint(requests_.size())];
    }
    std::vector<std::string> lines = Split(text, '\n');
    const int mutations = 1 + static_cast<int>(rng.NextUint(3));
    for (int m = 0; m < mutations && !lines.empty(); ++m) {
      const size_t i = rng.NextUint(lines.size());
      switch (rng.NextUint(7)) {
        case 0:
          lines.erase(lines.begin() + static_cast<long>(i));
          break;
        case 1:
          lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
          break;
        case 2:
          std::swap(lines[i], lines[rng.NextUint(lines.size())]);
          break;
        case 3:
          lines.insert(lines.begin() + static_cast<long>(i),
                       garbage[rng.NextUint(garbage.size())]);
          break;
        case 4: {
          std::vector<std::string> f = SplitWhitespace(lines[i]);
          if (f.empty()) break;
          f[rng.NextUint(f.size())] = garbage[rng.NextUint(garbage.size())];
          lines[i] = Join(f, rng.NextBool() ? " " : " \t ");
          break;
        }
        case 5:
          lines[i] = (rng.NextBool() ? "  " : "") + lines[i] +
                     (rng.NextBool() ? "\r" : " \t");
          break;
        default:
          lines[i] = lines[i].substr(0, rng.NextUint(lines[i].size() + 1));
          break;
      }
    }
    text = Join(lines, "\n");
    if (rng.NextBool(0.2)) text = text.substr(0, rng.NextUint(text.size() + 1));
    if (HasExcessNodes(text)) continue;
    ExpectSameRequests(text, &tally);
    ExpectSameDocuments(text);
    if (::testing::Test::HasFatalFailure()) return;
    ++compared;
  }
  // The damage leaves a real mix of good and bad requests.
  EXPECT_GT(tally.requests_ok, 1000);
  EXPECT_GT(tally.requests_err, 1000);
}

// Whole documents: a graph file with features and labels, and a view file
// holding every view of the store.
TEST_F(ParseOracleTest, GraphAndViewFilesParseAlike) {
  std::string graphs;
  for (int i = 0; i < store_.db.size(); ++i) {
    Graph g = store_.db.graph(i);
    if (i % 2 == 0) {
      EXPECT_TRUE(g.SetOneHotFeaturesFromTypes(8).ok());
    }
    graphs += SerializeGraph(g, i % 3 - 1);
  }
  ExpectSameDocuments(graphs);
  std::string views;
  for (const ExplanationView& v : store_.views) views += SerializeView(v);
  ExpectSameDocuments(views);
  ExpectSameDocuments("\n\n" + views + "\n");
  ASSERT_TRUE(ParseViews(views).ok());
  EXPECT_EQ(ParseViews(views).value().size(), store_.views.size());
}

}  // namespace
}  // namespace gvex
