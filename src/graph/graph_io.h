// Plain-text serialization of attributed graphs and graph databases.
//
// Format (line-oriented, '#' comments allowed):
//   graph <num_nodes> <directed:0|1> [label]
//   n <id> <type> [f0 f1 ...]
//   e <u> <v> <edge_type>
//   end
//
// A file may contain many graphs; `label` is the class label used by the
// classification task (-1 when absent).

#ifndef GVEX_GRAPH_GRAPH_IO_H_
#define GVEX_GRAPH_GRAPH_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gvex {

/// One serialized record: a graph plus its (optional) class label.
struct LabeledGraph {
  Graph graph;
  int label = -1;
};

/// Serializes one labeled graph in the text format above.
std::string SerializeGraph(const Graph& g, int label = -1);

/// Parses all graphs from text. Error messages number lines from 1.
Result<std::vector<LabeledGraph>> ParseGraphs(std::string_view text);

/// Parses one graph block straight from `lines`: the lines up to and
/// including the first one that trims to "end" — what ParseGraphs would
/// make of that block on its own, labels dropped, with its line numbers
/// counted from the block's first line. The cursor always moves past the
/// block. Fails with `unterminated` when the lines run out before an
/// "end", else with the block's first parse error, else with `not_one`
/// when the block holds more than one graph.
Result<Graph> ReadGraphBlock(LineCursor* lines, const char* unterminated,
                             const char* not_one);

/// Writes a set of labeled graphs to `path`.
Status SaveGraphs(const std::string& path,
                  const std::vector<LabeledGraph>& graphs);

/// Loads all graphs from `path`.
Result<std::vector<LabeledGraph>> LoadGraphs(const std::string& path);

}  // namespace gvex

#endif  // GVEX_GRAPH_GRAPH_IO_H_
