// Shared motif builders for the synthetic dataset generators. Each helper
// appends a motif to a graph under construction and returns the ids of the
// motif nodes so generators can wire them into the base structure.
//
// These motifs are the ground-truth explanation structures: nitro groups and
// carbon rings for the molecule datasets (the paper's toxicophore story,
// Figs. 1/3/10), stars and bicliques for the social dataset (Fig. 11), and
// house/cycle motifs for SYNTHETIC (the GNNExplainer-style generator).

#ifndef GVEX_DATA_MOTIFS_H_
#define GVEX_DATA_MOTIFS_H_

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace gvex {

/// Atom type ids used by the molecule generators (14 types like MUT).
enum AtomType : int {
  kCarbon = 0,
  kNitrogen = 1,
  kOxygen = 2,
  kHydrogen = 3,
  kChlorine = 4,
  kFluorine = 5,
  kSulfur = 6,
  kPhosphorus = 7,
  kBromine = 8,
  kIodine = 9,
  kSodium = 10,
  kPotassium = 11,
  kLithium = 12,
  kCalcium = 13,
};
inline constexpr int kNumAtomTypes = 14;

/// Display names for atom types (examples / case studies).
const std::vector<std::string>& AtomVocab();

/// Adds a ring of `size` nodes of `node_type`; returns the ring node ids.
std::vector<NodeId> AddRing(Graph* g, int size, int node_type,
                            int edge_type = 0);

/// Adds a simple path of `size` nodes of `node_type`; returns its ids.
std::vector<NodeId> AddPath(Graph* g, int size, int node_type,
                            int edge_type = 0);

/// Adds a nitro group (N bonded to two O) attached to `anchor`; returns
/// {n, o1, o2}.
std::vector<NodeId> AddNitroGroup(Graph* g, NodeId anchor);

/// Adds a hydroxyl group (single O with H) attached to `anchor`.
std::vector<NodeId> AddHydroxylGroup(Graph* g, NodeId anchor);

/// Adds a star: one hub of `hub_type` with `leaves` leaf nodes of
/// `leaf_type`; returns {hub, leaf...}.
std::vector<NodeId> AddStar(Graph* g, int leaves, int hub_type,
                            int leaf_type);

/// Adds a complete bipartite K_{a,b}; returns the a-side then b-side ids.
std::vector<NodeId> AddBiclique(Graph* g, int a, int b, int a_type,
                                int b_type);

/// Adds the 5-node "house" motif (square + roof) of `node_type`.
std::vector<NodeId> AddHouse(Graph* g, int node_type);

/// Adds a cycle motif of length `len`.
std::vector<NodeId> AddCycleMotif(Graph* g, int len, int node_type);

/// Connects `node` to a uniformly random existing node (avoiding self loops
/// and duplicates); used to attach motifs to base graphs.
void AttachRandomly(Graph* g, NodeId node, Rng* rng);

/// Number of degree bins used by SetDegreeBinFeatures.
inline constexpr int kDegreeBins = 8;

/// Installs one-hot binned-degree features (bins 1,2,3,4-5,6-8,9-12,13-20,
/// 21+) — the standard default for featureless datasets like REDDIT-BINARY.
/// A 1-dim constant/scalar feature would make every GCN embedding a scalar
/// multiple of one vector (rank-1), leaving graph classification unlearnable.
void SetDegreeBinFeatures(Graph* g);

}  // namespace gvex

#endif  // GVEX_DATA_MOTIFS_H_
