// Connectivity queries over attributed graphs: connected components and the
// connectivity check used by pattern mining (patterns must be connected per
// §2.1) and by the explanation-subgraph bookkeeping.

#ifndef GVEX_GRAPH_CONNECTIVITY_H_
#define GVEX_GRAPH_CONNECTIVITY_H_

#include <vector>

#include "graph/graph.h"

namespace gvex {

/// Connected components (edges treated as undirected). Each inner vector
/// lists node ids of one component, in ascending order; components are
/// ordered by their smallest node.
std::vector<std::vector<NodeId>> ConnectedComponents(const Graph& g);

/// True iff the graph is connected (the empty graph counts as connected).
bool IsConnected(const Graph& g);

}  // namespace gvex

#endif  // GVEX_GRAPH_CONNECTIVITY_H_
