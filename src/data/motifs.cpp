#include "data/motifs.h"

namespace gvex {

const std::vector<std::string>& AtomVocab() {
  static const std::vector<std::string> kVocab = {
      "C", "N", "O", "H", "Cl", "F", "S", "P", "Br", "I", "Na", "K", "Li",
      "Ca"};
  return kVocab;
}

std::vector<NodeId> AddRing(Graph* g, int size, int node_type, int edge_type) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) nodes.push_back(g->AddNode(node_type));
  for (int i = 0; i < size; ++i) {
    (void)g->AddEdge(nodes[static_cast<size_t>(i)],
                     nodes[static_cast<size_t>((i + 1) % size)], edge_type);
  }
  return nodes;
}

std::vector<NodeId> AddPath(Graph* g, int size, int node_type, int edge_type) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) nodes.push_back(g->AddNode(node_type));
  for (int i = 0; i + 1 < size; ++i) {
    (void)g->AddEdge(nodes[static_cast<size_t>(i)],
                     nodes[static_cast<size_t>(i + 1)], edge_type);
  }
  return nodes;
}

std::vector<NodeId> AddNitroGroup(Graph* g, NodeId anchor) {
  NodeId n = g->AddNode(kNitrogen);
  NodeId o1 = g->AddNode(kOxygen);
  NodeId o2 = g->AddNode(kOxygen);
  (void)g->AddEdge(anchor, n);
  (void)g->AddEdge(n, o1);
  (void)g->AddEdge(n, o2);
  return {n, o1, o2};
}

std::vector<NodeId> AddHydroxylGroup(Graph* g, NodeId anchor) {
  NodeId o = g->AddNode(kOxygen);
  NodeId h = g->AddNode(kHydrogen);
  (void)g->AddEdge(anchor, o);
  (void)g->AddEdge(o, h);
  return {o, h};
}

std::vector<NodeId> AddStar(Graph* g, int leaves, int hub_type,
                            int leaf_type) {
  std::vector<NodeId> nodes;
  NodeId hub = g->AddNode(hub_type);
  nodes.push_back(hub);
  for (int i = 0; i < leaves; ++i) {
    NodeId leaf = g->AddNode(leaf_type);
    (void)g->AddEdge(hub, leaf);
    nodes.push_back(leaf);
  }
  return nodes;
}

std::vector<NodeId> AddBiclique(Graph* g, int a, int b, int a_type,
                                int b_type) {
  std::vector<NodeId> nodes;
  std::vector<NodeId> left;
  for (int i = 0; i < a; ++i) {
    left.push_back(g->AddNode(a_type));
    nodes.push_back(left.back());
  }
  for (int j = 0; j < b; ++j) {
    NodeId r = g->AddNode(b_type);
    nodes.push_back(r);
    for (NodeId l : left) (void)g->AddEdge(l, r);
  }
  return nodes;
}

std::vector<NodeId> AddHouse(Graph* g, int node_type) {
  // Square 0-1-2-3 plus roof node 4 on top of 0-1.
  std::vector<NodeId> v;
  for (int i = 0; i < 5; ++i) v.push_back(g->AddNode(node_type));
  (void)g->AddEdge(v[0], v[1]);
  (void)g->AddEdge(v[1], v[2]);
  (void)g->AddEdge(v[2], v[3]);
  (void)g->AddEdge(v[3], v[0]);
  (void)g->AddEdge(v[0], v[4]);
  (void)g->AddEdge(v[1], v[4]);
  return v;
}

std::vector<NodeId> AddCycleMotif(Graph* g, int len, int node_type) {
  return AddRing(g, len, node_type);
}

void SetDegreeBinFeatures(Graph* g) {
  Matrix x(g->num_nodes(), kDegreeBins);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    const int d = g->degree(v);
    int bin;
    if (d <= 1) bin = 0;
    else if (d == 2) bin = 1;
    else if (d == 3) bin = 2;
    else if (d <= 5) bin = 3;
    else if (d <= 8) bin = 4;
    else if (d <= 12) bin = 5;
    else if (d <= 20) bin = 6;
    else bin = 7;
    x.at(v, bin) = 1.0f;
  }
  (void)g->SetFeatures(std::move(x));
}

void AttachRandomly(Graph* g, NodeId node, Rng* rng) {
  if (g->num_nodes() <= 1) return;
  for (int attempt = 0; attempt < 16; ++attempt) {
    NodeId other = static_cast<NodeId>(
        rng->NextUint(static_cast<uint64_t>(g->num_nodes())));
    if (other == node) continue;
    if (g->AddEdge(node, other).ok()) return;
  }
}

}  // namespace gvex
