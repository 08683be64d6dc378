#include "explain/view_io.h"

#include <fstream>
#include <sstream>

#include "graph/graph_io.h"
#include "util/string_util.h"

namespace gvex {

// Format:
//   view <label> <explainability> <num_patterns> <num_subgraphs>
//   pattern
//   <graph text>
//   subgraph <graph_index> <consistent> <counterfactual> <explainability>
//   nodes <id...>
//   <graph text>
//   endview

std::string SerializeView(const ExplanationView& view) {
  std::string out = StrFormat("view %d %.9g %zu %zu\n", view.label,
                              view.explainability, view.patterns.size(),
                              view.subgraphs.size());
  for (const Pattern& p : view.patterns) {
    out += "pattern\n";
    out += SerializeGraph(p.graph());
  }
  for (const ExplanationSubgraph& s : view.subgraphs) {
    out += StrFormat("subgraph %d %d %d %.9g\nnodes", s.graph_index,
                     s.consistent ? 1 : 0, s.counterfactual ? 1 : 0,
                     s.explainability);
    for (NodeId v : s.nodes) out += StrFormat(" %d", v);
    out += "\n";
    out += SerializeGraph(s.subgraph);
  }
  out += "endview\n";
  return out;
}

Result<std::vector<ExplanationView>> ParseViews(std::string_view text) {
  std::vector<ExplanationView> views;
  LineCursor lines(text);
  std::string_view raw;
  // The next line, trimmed, without consuming it.
  const auto peek = [&lines](std::string_view* line) {
    LineCursor peek = lines;
    if (!peek.Next(line)) return false;
    *line = TrimView(*line);
    return true;
  };
  while (lines.Next(&raw)) {
    const std::string_view line = TrimView(raw);
    if (line.empty()) continue;
    const size_t lineno = lines.lines_read();  // 1-based, as Split counts
    const std::vector<std::string_view> head = SplitWhitespaceView(line);
    if (head[0] != "view" || head.size() < 5) {
      return Status::InvalidArgument(
          StrFormat("expected 'view' header at line %zu", lineno));
    }
    ExplanationView view;
    int num_patterns_int = 0;
    int num_subgraphs_int = 0;
    if (!ParseInt(head[1], &view.label) ||
        !ParseDouble(head[2], &view.explainability) ||
        !ParseInt(head[3], &num_patterns_int) || num_patterns_int < 0 ||
        !ParseInt(head[4], &num_subgraphs_int) || num_subgraphs_int < 0) {
      return Status::InvalidArgument(
          StrFormat("malformed 'view' header at line %zu", lineno));
    }
    const size_t num_patterns = static_cast<size_t>(num_patterns_int);
    const size_t num_subgraphs = static_cast<size_t>(num_subgraphs_int);

    std::string_view cur;
    for (size_t i = 0; i < num_patterns; ++i) {
      if (!peek(&cur) || cur != "pattern") {
        return Status::InvalidArgument("expected 'pattern'");
      }
      lines.Next(&raw);
      auto g = ReadGraphBlock(&lines, "unterminated graph block",
                              "expected exactly one graph in block");
      if (!g.ok()) return g.status();
      auto p = Pattern::Create(std::move(g).value());
      if (!p.ok()) return p.status();
      view.patterns.push_back(std::move(p).value());
    }
    for (size_t i = 0; i < num_subgraphs; ++i) {
      if (!lines.Next(&raw)) {
        return Status::InvalidArgument("truncated view");
      }
      std::string_view sub_rest = TrimView(raw);
      const std::string_view sub_kw = NextField(&sub_rest);
      const std::string_view sub_index = NextField(&sub_rest);
      const std::string_view sub_consistent = NextField(&sub_rest);
      const std::string_view sub_counterfactual = NextField(&sub_rest);
      const std::string_view sub_explainability = NextField(&sub_rest);
      if (sub_explainability.empty() || sub_kw != "subgraph") {
        return Status::InvalidArgument("expected 'subgraph' header");
      }
      ExplanationSubgraph s;
      int consistent = 0;
      int counterfactual = 0;
      if (!ParseInt(sub_index, &s.graph_index) ||
          !ParseInt(sub_consistent, &consistent) ||
          !ParseInt(sub_counterfactual, &counterfactual) ||
          !ParseDouble(sub_explainability, &s.explainability)) {
        return Status::InvalidArgument("malformed 'subgraph' header");
      }
      s.consistent = consistent != 0;
      s.counterfactual = counterfactual != 0;
      if (!lines.Next(&raw)) {
        return Status::InvalidArgument("truncated subgraph");
      }
      std::string_view node_rest = TrimView(raw);
      if (NextField(&node_rest) != "nodes") {
        return Status::InvalidArgument("expected 'nodes' line");
      }
      for (std::string_view f = NextField(&node_rest); !f.empty();
           f = NextField(&node_rest)) {
        int node = 0;
        if (!ParseInt(f, &node)) {
          return Status::InvalidArgument(
              StrFormat("malformed node id '%.*s'",
                        static_cast<int>(f.size()), f.data()));
        }
        s.nodes.push_back(node);
      }
      auto g = ReadGraphBlock(&lines, "unterminated graph block",
                              "expected exactly one graph in block");
      if (!g.ok()) return g.status();
      s.subgraph = std::move(g).value();
      view.subgraphs.push_back(std::move(s));
    }
    if (!peek(&cur) || cur != "endview") {
      return Status::InvalidArgument("missing 'endview'");
    }
    lines.Next(&raw);
    views.push_back(std::move(view));
  }
  return views;
}

Status SaveViews(const std::string& path,
                 const std::vector<ExplanationView>& views) {
  std::ofstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  for (const auto& view : views) f << SerializeView(view);
  if (!f.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<std::vector<ExplanationView>> LoadViews(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) return Status::IOError("cannot open " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ParseViews(ss.str());
}

}  // namespace gvex
