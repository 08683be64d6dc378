// Test-only oracle: the text parsers as they ran before requests were
// read in place through a LineCursor. The request was split into
// std::string lines, each payload block joined back into one string
// (CollectBlock, ReadGraphBlock) and split again, every graph parsed from
// its own std::istringstream, and numbers read with strtol/strtod. Kept
// verbatim — numeric helpers included — so ParseOracleTest can pin the
// production parsers (serve/serve_protocol.cpp, explain/view_io.cpp,
// graph/graph_io.cpp, util/string_util.cpp) to it: the same accepted and
// rejected requests, the same error text, the same parsed objects and the
// same stream position after each request.
//
// Known defect kept with the copy: a node line past the graph's declared
// node count that carries a feature writes past the end of `feats`, and
// a huge declared count allocates for it up front. Feed it neither.

#ifndef GVEX_TESTS_SERVE_PARSE_REFERENCE_H_
#define GVEX_TESTS_SERVE_PARSE_REFERENCE_H_

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_io.h"
#include "pattern/pattern.h"
#include "serve/serve_protocol.h"
#include "util/status.h"
#include "util/number_reference.h"
#include "util/string_util.h"

namespace gvex {
namespace testing {
namespace parse_reference {

// The numeric helpers of util/string_util.cpp, as they were.
using number_reference::ParseDouble;
using number_reference::ParseFloat;
using number_reference::ParseInt;
using number_reference::ParseUint64;

// --- graph/graph_io.cpp --------------------------------------------------

inline Result<std::vector<LabeledGraph>> ParseGraphs(const std::string& text) {
  std::vector<LabeledGraph> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;

  LabeledGraph cur;
  bool in_graph = false;
  int expected_nodes = 0;
  std::vector<std::vector<float>> feats;

  auto finish_graph = [&]() -> Status {
    if (cur.graph.num_nodes() != expected_nodes) {
      return Status::InvalidArgument(
          StrFormat("graph declared %d nodes but %d given", expected_nodes,
                    cur.graph.num_nodes()));
    }
    bool any_feats = false;
    for (const auto& f : feats) {
      if (!f.empty()) any_feats = true;
    }
    if (any_feats) {
      size_t dim = 0;
      for (const auto& f : feats) dim = std::max(dim, f.size());
      Matrix x(cur.graph.num_nodes(), static_cast<int>(dim));
      for (int v = 0; v < cur.graph.num_nodes(); ++v) {
        const auto& f = feats[static_cast<size_t>(v)];
        for (size_t j = 0; j < f.size(); ++j) {
          x.at(v, static_cast<int>(j)) = f[j];
        }
      }
      GVEX_RETURN_NOT_OK(cur.graph.SetFeatures(std::move(x)));
    }
    out.push_back(std::move(cur));
    return Status::OK();
  };

  while (std::getline(in, line)) {
    ++lineno;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    auto tok = SplitWhitespace(line);
    if (tok[0] == "graph") {
      if (in_graph) {
        return Status::InvalidArgument(
            StrFormat("line %d: nested 'graph'", lineno));
      }
      int directed_flag = 0;
      if (tok.size() < 3 || !ParseInt(tok[1], &expected_nodes) ||
          expected_nodes < 0 || !ParseInt(tok[2], &directed_flag)) {
        return Status::InvalidArgument(
            StrFormat("line %d: malformed graph header", lineno));
      }
      cur = LabeledGraph{Graph(directed_flag != 0), -1};
      if (tok.size() >= 4 && !ParseInt(tok[3], &cur.label)) {
        return Status::InvalidArgument(
            StrFormat("line %d: malformed graph label", lineno));
      }
      feats.assign(static_cast<size_t>(expected_nodes), {});
      in_graph = true;
    } else if (tok[0] == "n") {
      int id = 0;
      int type = 0;
      if (!in_graph || tok.size() < 3 || !ParseInt(tok[1], &id) ||
          !ParseInt(tok[2], &type)) {
        return Status::InvalidArgument(
            StrFormat("line %d: malformed node line", lineno));
      }
      NodeId got = cur.graph.AddNode(type);
      if (got != id) {
        return Status::InvalidArgument(
            StrFormat("line %d: node ids must be dense in order (got %d, "
                      "expected %d)",
                      lineno, id, got));
      }
      for (size_t j = 3; j < tok.size(); ++j) {
        float feat = 0.0f;
        if (!ParseFloat(tok[j], &feat)) {
          return Status::InvalidArgument(
              StrFormat("line %d: malformed feature '%s'", lineno,
                        tok[j].c_str()));
        }
        feats[static_cast<size_t>(id)].push_back(feat);
      }
    } else if (tok[0] == "e") {
      int u = 0;
      int v = 0;
      int et = 0;
      if (!in_graph || tok.size() < 3 || !ParseInt(tok[1], &u) ||
          !ParseInt(tok[2], &v) ||
          (tok.size() >= 4 && !ParseInt(tok[3], &et))) {
        return Status::InvalidArgument(
            StrFormat("line %d: malformed edge line", lineno));
      }
      Status st = cur.graph.AddEdge(u, v, et);
      if (!st.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: %s", lineno, st.ToString().c_str()));
      }
    } else if (tok[0] == "end") {
      if (!in_graph) {
        return Status::InvalidArgument(
            StrFormat("line %d: 'end' outside graph", lineno));
      }
      GVEX_RETURN_NOT_OK(finish_graph());
      in_graph = false;
    } else {
      return Status::InvalidArgument(
          StrFormat("line %d: unknown directive '%s'", lineno,
                    tok[0].c_str()));
    }
  }
  if (in_graph) {
    return Status::InvalidArgument("unterminated graph (missing 'end')");
  }
  return out;
}

// --- explain/view_io.cpp -------------------------------------------------

namespace internal {

// Pulls the next serialized graph block (up to and including "end") from the
// stream of lines starting at *pos; returns the parsed graph.
inline Result<Graph> ReadGraphBlock(const std::vector<std::string>& lines,
                             size_t* pos) {
  std::string block;
  bool ended = false;
  while (*pos < lines.size()) {
    const std::string& line = lines[*pos];
    block += line + "\n";
    ++*pos;
    if (Trim(line) == "end") {
      ended = true;
      break;
    }
  }
  if (!ended) return Status::InvalidArgument("unterminated graph block");
  auto parsed = ParseGraphs(block);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value().size() != 1) {
    return Status::InvalidArgument("expected exactly one graph in block");
  }
  return std::move(parsed.value()[0].graph);
}

}  // namespace internal

inline Result<std::vector<ExplanationView>> ParseViews(const std::string& text) {
  std::vector<ExplanationView> views;
  std::vector<std::string> lines = Split(text, '\n');
  size_t pos = 0;
  while (pos < lines.size()) {
    std::string line = Trim(lines[pos]);
    if (line.empty()) {
      ++pos;
      continue;
    }
    auto head = SplitWhitespace(line);
    if (head.empty() || head[0] != "view" || head.size() < 5) {
      return Status::InvalidArgument(
          StrFormat("expected 'view' header at line %zu", pos + 1));
    }
    ExplanationView view;
    int num_patterns_int = 0;
    int num_subgraphs_int = 0;
    if (!ParseInt(head[1], &view.label) ||
        !ParseDouble(head[2], &view.explainability) ||
        !ParseInt(head[3], &num_patterns_int) || num_patterns_int < 0 ||
        !ParseInt(head[4], &num_subgraphs_int) || num_subgraphs_int < 0) {
      return Status::InvalidArgument(
          StrFormat("malformed 'view' header at line %zu", pos + 1));
    }
    ++pos;
    const size_t num_patterns = static_cast<size_t>(num_patterns_int);
    const size_t num_subgraphs = static_cast<size_t>(num_subgraphs_int);

    for (size_t i = 0; i < num_patterns; ++i) {
      if (pos >= lines.size() || Trim(lines[pos]) != "pattern") {
        return Status::InvalidArgument("expected 'pattern'");
      }
      ++pos;
      auto g = internal::ReadGraphBlock(lines, &pos);
      if (!g.ok()) return g.status();
      auto p = Pattern::Create(std::move(g).value());
      if (!p.ok()) return p.status();
      view.patterns.push_back(std::move(p).value());
    }
    for (size_t i = 0; i < num_subgraphs; ++i) {
      if (pos >= lines.size()) {
        return Status::InvalidArgument("truncated view");
      }
      auto sub_head = SplitWhitespace(Trim(lines[pos]));
      if (sub_head.size() < 5 || sub_head[0] != "subgraph") {
        return Status::InvalidArgument("expected 'subgraph' header");
      }
      ExplanationSubgraph s;
      int consistent = 0;
      int counterfactual = 0;
      if (!ParseInt(sub_head[1], &s.graph_index) ||
          !ParseInt(sub_head[2], &consistent) ||
          !ParseInt(sub_head[3], &counterfactual) ||
          !ParseDouble(sub_head[4], &s.explainability)) {
        return Status::InvalidArgument("malformed 'subgraph' header");
      }
      s.consistent = consistent != 0;
      s.counterfactual = counterfactual != 0;
      ++pos;
      if (pos >= lines.size()) {
        return Status::InvalidArgument("truncated subgraph");
      }
      auto node_line = SplitWhitespace(Trim(lines[pos]));
      if (node_line.empty() || node_line[0] != "nodes") {
        return Status::InvalidArgument("expected 'nodes' line");
      }
      ++pos;
      for (size_t j = 1; j < node_line.size(); ++j) {
        int node = 0;
        if (!ParseInt(node_line[j], &node)) {
          return Status::InvalidArgument(
              StrFormat("malformed node id '%s'", node_line[j].c_str()));
        }
        s.nodes.push_back(node);
      }
      auto g = internal::ReadGraphBlock(lines, &pos);
      if (!g.ok()) return g.status();
      s.subgraph = std::move(g).value();
      view.subgraphs.push_back(std::move(s));
    }
    if (pos >= lines.size() || Trim(lines[pos]) != "endview") {
      return Status::InvalidArgument("missing 'endview'");
    }
    ++pos;
    views.push_back(std::move(view));
  }
  return views;
}

// --- serve/serve_protocol.cpp --------------------------------------------

namespace internal {

// Collects lines from *pos up to and including the `terminator` line and
// returns them joined; advances *pos past the terminator.
inline Result<std::string> CollectBlock(const std::vector<std::string>& lines,
                                 size_t* pos, const std::string& terminator) {
  std::string block;
  while (*pos < lines.size()) {
    const std::string& line = lines[*pos];
    block += line + "\n";
    ++*pos;
    if (Trim(line) == terminator) return block;
  }
  return Status::InvalidArgument("unterminated '" + terminator + "' block");
}

inline Result<Pattern> ParsePatternBlock(const std::vector<std::string>& lines,
                                  size_t* pos) {
  auto block = CollectBlock(lines, pos, "end");
  if (!block.ok()) return block.status();
  auto graphs = ParseGraphs(block.value());
  if (!graphs.ok()) return graphs.status();
  if (graphs.value().size() != 1) {
    return Status::InvalidArgument("expected exactly one pattern graph");
  }
  return Pattern::Create(std::move(graphs.value()[0].graph));
}

inline Result<int> ParseLabelArg(const std::vector<std::string>& head) {
  if (head.size() < 2) {
    return Status::InvalidArgument("'" + head[0] + "' needs a label");
  }
  int label = 0;
  // Full consumption: "1x" is a typo, not label 1.
  if (ParseInt(head[1], &label)) return label;
  return Status::InvalidArgument("bad label '" + head[1] + "'");
}

}  // namespace internal

inline Result<ServeRequest> ParseServeRequest(const std::vector<std::string>& lines,
                                       size_t* pos) {
  while (*pos < lines.size() && Trim(lines[*pos]).empty()) ++*pos;
  if (*pos >= lines.size()) return Status::NotFound("end of input");
  const std::vector<std::string> head = SplitWhitespace(Trim(lines[*pos]));
  ++*pos;
  ServeRequest req;
  const std::string& kw = head[0];
  if (kw == "labels") {
    req.kind = ServeRequest::Kind::kLabels;
    return req;
  }
  if (kw == "stats") {
    req.kind = ServeRequest::Kind::kStats;
    return req;
  }
  if (kw == "metrics") {
    req.kind = ServeRequest::Kind::kMetrics;
    return req;
  }
  if (kw == "traces") {
    req.kind = ServeRequest::Kind::kTraces;
    return req;
  }
  if (kw == "health") {
    req.kind = ServeRequest::Kind::kHealth;
    return req;
  }
  if (kw == "events") {
    req.kind = ServeRequest::Kind::kEvents;
    return req;
  }
  if (kw == "trace") {
    if (head.size() < 2 || (head[1] != "on" && head[1] != "off")) {
      return Status::InvalidArgument("'trace' needs on or off");
    }
    req.kind = ServeRequest::Kind::kTrace;
    req.trace_on = head[1] == "on";
    if (!req.trace_on && head.size() > 2) {
      return Status::InvalidArgument("'trace off' takes no arguments");
    }
    if (req.trace_on) {
      if (head.size() > 3) {
        return Status::InvalidArgument(
            "'trace on' takes at most one sample period");
      }
      if (head.size() == 3) {
        int n = 0;
        if (!ParseInt(head[2], &n) || n < 1) {
          return Status::InvalidArgument("bad trace sample period '" +
                                         head[2] + "'");
        }
        req.trace_sample = n;
      }
    }
    return req;
  }
  if (kw == "save") {
    req.kind = ServeRequest::Kind::kSave;
    if (head.size() > 2) {
      // "save --delta --full" must not silently win by first flag.
      return Status::InvalidArgument(
          "'save' takes at most one flag (--delta or --full)");
    }
    if (head.size() == 2) {
      if (head[1] == "--delta") {
        req.save_kind = SaveKind::kDelta;
      } else if (head[1] == "--full") {
        req.save_kind = SaveKind::kFull;
      } else {
        return Status::InvalidArgument("bad save flag '" + head[1] +
                                       "' (use --delta or --full)");
      }
    }
    return req;
  }
  if (kw == "compact") {
    req.kind = ServeRequest::Kind::kCompact;
    return req;
  }
  if (kw == "replicate") {
    req.kind = ServeRequest::Kind::kReplicate;
    if (head.size() < 2) {
      return Status::InvalidArgument(
          "'replicate' needs an op: state, fetch, or crc");
    }
    if (head[1] == "state") {
      if (head.size() > 2) {
        return Status::InvalidArgument("'replicate state' takes no arguments");
      }
      req.repl_op = ServeRequest::ReplOp::kState;
      return req;
    }
    if (head[1] == "fetch") {
      if (head.size() != 5 || !ParseUint64(head[3], &req.repl_offset) ||
          !ParseUint64(head[4], &req.repl_len)) {
        return Status::InvalidArgument(
            "usage: replicate fetch <file> <offset> <maxlen>");
      }
      req.repl_op = ServeRequest::ReplOp::kFetch;
      req.repl_name = head[2];
      return req;
    }
    if (head[1] == "crc") {
      if (head.size() != 4 || !ParseUint64(head[3], &req.repl_len)) {
        return Status::InvalidArgument("usage: replicate crc <file> <bytes>");
      }
      req.repl_op = ServeRequest::ReplOp::kCrc;
      req.repl_name = head[2];
      return req;
    }
    return Status::InvalidArgument("unknown replicate op '" + head[1] +
                                   "' (use state, fetch, or crc)");
  }
  if (kw == "promote") {
    req.kind = ServeRequest::Kind::kPromote;
    return req;
  }
  if (kw == "quit") {
    req.kind = ServeRequest::Kind::kQuit;
    return req;
  }
  if (kw == "patterns" || kw == "discriminative") {
    auto label = internal::ParseLabelArg(head);
    if (!label.ok()) return label.status();
    req.kind = kw == "patterns" ? ServeRequest::Kind::kPatterns
                                : ServeRequest::Kind::kDiscriminative;
    req.label = label.value();
    return req;
  }
  if (kw == "graphs" || kw == "dbgraphs") {
    // Consume the payload block BEFORE reporting a bad label, so a
    // malformed request never desynchronizes the stream (the block's graph
    // lines must not be re-parsed as requests).
    auto label = internal::ParseLabelArg(head);
    auto pattern = internal::ParsePatternBlock(lines, pos);
    if (!label.ok()) return label.status();
    if (!pattern.ok()) return pattern.status();
    req.kind = kw == "graphs" ? ServeRequest::Kind::kGraphs
                              : ServeRequest::Kind::kDbGraphs;
    req.label = label.value();
    req.pattern = std::move(pattern).value();
    return req;
  }
  if (kw == "graphsall") {
    // Head: graphsall <label> <k>, then k pattern blocks. Consume every
    // block before reporting argument errors (stream stays in sync).
    auto label = internal::ParseLabelArg(head);
    int count = -1;
    if (head.size() >= 3) {
      int k = -1;
      if (ParseInt(head[2], &k) && k >= 0) count = k;
    }
    Status first_error = Status::OK();
    for (int i = 0; i < std::max(0, count); ++i) {
      auto pattern = internal::ParsePatternBlock(lines, pos);
      if (!pattern.ok()) {
        // An unterminated block consumed the rest of the input; stop.
        if (first_error.ok()) first_error = pattern.status();
        break;
      }
      req.patterns.push_back(std::move(pattern).value());
    }
    if (!label.ok()) return label.status();
    if (count < 0) {
      return Status::InvalidArgument(
          "'graphsall' needs a pattern count: graphsall <label> <k>");
    }
    if (!first_error.ok()) return first_error;
    req.kind = ServeRequest::Kind::kGraphsAll;
    req.label = label.value();
    return req;
  }
  if (kw == "mcs") {
    auto label = internal::ParseLabelArg(head);
    auto block = internal::CollectBlock(lines, pos, "end");
    if (!label.ok()) return label.status();
    if (!block.ok()) return block.status();
    auto graphs = ParseGraphs(block.value());
    if (!graphs.ok()) return graphs.status();
    if (graphs.value().size() != 1) {
      return Status::InvalidArgument("expected exactly one query graph");
    }
    if (graphs.value()[0].graph.num_nodes() == 0) {
      return Status::InvalidArgument("mcs query graph must be non-empty");
    }
    req.kind = ServeRequest::Kind::kMcs;
    req.label = label.value();
    req.query_graph = std::move(graphs.value()[0].graph);
    return req;
  }
  if (kw == "labelsof") {
    auto pattern = internal::ParsePatternBlock(lines, pos);
    if (!pattern.ok()) return pattern.status();
    req.kind = ServeRequest::Kind::kLabelsOf;
    req.pattern = std::move(pattern).value();
    return req;
  }
  if (kw == "admit") {
    auto block = internal::CollectBlock(lines, pos, "endview");
    if (!block.ok()) return block.status();
    auto views = ParseViews(block.value());
    if (!views.ok()) return views.status();
    if (views.value().size() != 1) {
      return Status::InvalidArgument("expected exactly one view to admit");
    }
    req.kind = ServeRequest::Kind::kAdmit;
    req.view = std::move(views.value()[0]);
    return req;
  }
  return Status::InvalidArgument("unknown request '" + kw + "'");
}

}  // namespace parse_reference
}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_SERVE_PARSE_REFERENCE_H_
