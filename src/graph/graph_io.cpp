#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/string_util.h"

namespace gvex {

std::string SerializeGraph(const Graph& g, int label) {
  std::string out = StrFormat("graph %d %d %d\n", g.num_nodes(),
                              g.directed() ? 1 : 0, label);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out += StrFormat("n %d %d", v, g.node_type(v));
    if (g.has_features()) {
      for (int j = 0; j < g.feature_dim(); ++j) {
        out += StrFormat(" %.6g", g.features().at(v, j));
      }
    }
    out += "\n";
  }
  for (const Edge& e : g.edges()) {
    out += StrFormat("e %d %d %d\n", e.u, e.v, e.edge_type);
  }
  out += "end\n";
  return out;
}

namespace {

// The graph text format, one line at a time: ParseGraphs feeds it every
// line of a text, ReadGraphBlock the lines of one block.
class GraphTextReader {
 public:
  // Consumes one trimmed line, numbered `lineno` in error messages. Sets
  // *done when the line was an 'end' that completed a graph; Take() then
  // hands that graph out.
  Status Line(std::string_view line, int lineno, bool* done);

  bool in_graph() const { return in_graph_; }
  LabeledGraph Take() { return std::move(cur_); }

 private:
  Status Finish();

  LabeledGraph cur_;
  bool in_graph_ = false;
  int expected_nodes_ = 0;
  // Per-node features, grown by node lines (never by the header's count:
  // a hostile "graph 2000000000 0" must not allocate for its claim).
  std::vector<std::vector<float>> feats_;
};

Status GraphTextReader::Finish() {
  if (cur_.graph.num_nodes() != expected_nodes_) {
    return Status::InvalidArgument(
        StrFormat("graph declared %d nodes but %d given", expected_nodes_,
                  cur_.graph.num_nodes()));
  }
  size_t dim = 0;
  for (const auto& f : feats_) dim = std::max(dim, f.size());
  if (dim > 0) {
    Matrix x(cur_.graph.num_nodes(), static_cast<int>(dim));
    for (size_t v = 0; v < feats_.size(); ++v) {
      const auto& f = feats_[v];
      for (size_t j = 0; j < f.size(); ++j) {
        x.at(static_cast<int>(v), static_cast<int>(j)) = f[j];
      }
    }
    GVEX_RETURN_NOT_OK(cur_.graph.SetFeatures(std::move(x)));
  }
  return Status::OK();
}

Status GraphTextReader::Line(std::string_view line, int lineno, bool* done) {
  *done = false;
  if (line.empty() || line[0] == '#') return Status::OK();
  const auto error = [lineno](const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("line %d: %s", lineno, what.c_str()));
  };
  // The directive and its first two arguments; `rest` then holds a
  // header's label, an edge's type or a node's features.
  std::string_view rest = line;
  const std::string_view directive = NextField(&rest);
  const std::string_view arg1 = NextField(&rest);
  const std::string_view arg2 = NextField(&rest);
  if (directive == "graph") {
    if (in_graph_) return error("nested 'graph'");
    int directed = 0;
    if (arg2.empty() || !ParseInt(arg1, &expected_nodes_) ||
        expected_nodes_ < 0 || !ParseInt(arg2, &directed)) {
      return error("malformed graph header");
    }
    cur_ = LabeledGraph{Graph(directed != 0), -1};
    const std::string_view label = NextField(&rest);
    if (!label.empty() && !ParseInt(label, &cur_.label)) {
      return error("malformed graph label");
    }
    feats_.clear();
    in_graph_ = true;
  } else if (directive == "n") {
    int id = 0;
    int type = 0;
    if (!in_graph_ || arg2.empty() || !ParseInt(arg1, &id) ||
        !ParseInt(arg2, &type)) {
      return error("malformed node line");
    }
    const NodeId next = cur_.graph.num_nodes();
    if (id != next) {
      return error(StrFormat(
          "node ids must be dense in order (got %d, expected %d)", id, next));
    }
    if (id >= expected_nodes_) {
      return error(StrFormat("node %d is past the %d nodes the graph declared",
                             id, expected_nodes_));
    }
    cur_.graph.AddNode(type);
    for (std::string_view f = NextField(&rest); !f.empty();
         f = NextField(&rest)) {
      float feat = 0.0f;
      if (!ParseFloat(f, &feat)) {
        return error(StrFormat("malformed feature '%s'",
                               std::string(f).c_str()));
      }
      if (feats_.size() <= static_cast<size_t>(id)) {
        feats_.resize(static_cast<size_t>(id) + 1);
      }
      feats_[static_cast<size_t>(id)].push_back(feat);
    }
  } else if (directive == "e") {
    const std::string_view type_field = NextField(&rest);
    int u = 0;
    int v = 0;
    int et = 0;
    if (!in_graph_ || arg2.empty() || !ParseInt(arg1, &u) ||
        !ParseInt(arg2, &v) ||
        (!type_field.empty() && !ParseInt(type_field, &et))) {
      return error("malformed edge line");
    }
    Status st = cur_.graph.AddEdge(u, v, et);
    if (!st.ok()) return error(st.ToString());
  } else if (directive == "end") {
    if (!in_graph_) return error("'end' outside graph");
    GVEX_RETURN_NOT_OK(Finish());
    in_graph_ = false;
    *done = true;
  } else {
    return error(StrFormat("unknown directive '%s'",
                           std::string(directive).c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<LabeledGraph>> ParseGraphs(std::string_view text) {
  std::vector<LabeledGraph> out;
  GraphTextReader reader;
  LineCursor lines(text);
  std::string_view line;
  while (lines.Next(&line)) {
    bool done = false;
    GVEX_RETURN_NOT_OK(reader.Line(
        TrimView(line), static_cast<int>(lines.lines_read()), &done));
    if (done) out.push_back(reader.Take());
  }
  if (reader.in_graph()) {
    return Status::InvalidArgument("unterminated graph (missing 'end')");
  }
  return out;
}

Result<Graph> ReadGraphBlock(LineCursor* lines, const char* unterminated,
                             const char* not_one) {
  GraphTextReader reader;
  Status error;
  int graphs = 0;
  Graph graph;
  int lineno = 0;
  std::string_view line;
  while (lines->Next(&line)) {
    const std::string_view trimmed = TrimView(line);
    if (error.ok()) {
      // After the first error the block is only read to its end, so the
      // stream stays in step.
      bool done = false;
      error = reader.Line(trimmed, ++lineno, &done);
      if (done && graphs++ == 0) graph = std::move(reader.Take().graph);
    }
    if (trimmed == "end") {
      if (!error.ok()) return error;
      if (graphs != 1) return Status::InvalidArgument(not_one);
      return graph;
    }
  }
  return Status::InvalidArgument(unterminated);
}

Status SaveGraphs(const std::string& path,
                  const std::vector<LabeledGraph>& graphs) {
  std::ofstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  for (const auto& lg : graphs) f << SerializeGraph(lg.graph, lg.label);
  if (!f.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<std::vector<LabeledGraph>> LoadGraphs(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ParseGraphs(ss.str());
}

}  // namespace gvex
