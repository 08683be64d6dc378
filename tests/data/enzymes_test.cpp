#include "data/enzymes.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pattern/matcher.h"

namespace gvex {
namespace {

TEST(EnzymesTest, GeneratesRequestedNumberOfGraphs) {
  EnzymesOptions opt;
  opt.num_graphs = 18;
  GraphDatabase db = GenerateEnzymes(opt);
  EXPECT_EQ(db.size(), 18);
}

TEST(EnzymesTest, AllSixClassesRoundRobin) {
  EnzymesOptions opt;
  opt.num_graphs = 24;
  GraphDatabase db = GenerateEnzymes(opt);
  std::set<int> labels(db.true_labels().begin(), db.true_labels().end());
  EXPECT_EQ(labels, (std::set<int>{0, 1, 2, 3, 4, 5}));
  // Classes are assigned round-robin (Table 3: 6 balanced classes).
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.true_label(i), i % 6) << "graph " << i;
  }
}

TEST(EnzymesTest, NodeCountsWithinConfiguredBounds) {
  EnzymesOptions opt;
  opt.num_graphs = 30;
  GraphDatabase db = GenerateEnzymes(opt);
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_GE(db.graph(i).num_nodes(), opt.min_nodes) << "graph " << i;
    EXPECT_LE(db.graph(i).num_nodes(), opt.max_nodes) << "graph " << i;
    EXPECT_GT(db.graph(i).num_edges(), 0) << "graph " << i;
  }
}

TEST(EnzymesTest, FeaturesAreOneHotOverThreeElementTypes) {
  EnzymesOptions opt;
  opt.num_graphs = 12;
  GraphDatabase db = GenerateEnzymes(opt);
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    ASSERT_TRUE(g.has_features()) << "graph " << i;
    ASSERT_EQ(g.feature_dim(), 3) << "graph " << i;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const int type = g.node_type(v);
      ASSERT_GE(type, 0);
      ASSERT_LE(type, 2);
      for (int c = 0; c < 3; ++c) {
        EXPECT_FLOAT_EQ(g.features().at(v, c), c == type ? 1.0f : 0.0f)
            << "graph " << i << " node " << v << " col " << c;
      }
    }
  }
}

TEST(EnzymesTest, ClassMotifIsPlanted) {
  // Class 0 plants a 4-ring of helices, class 1 a 5-ring of sheets
  // (enzymes.cpp PlantClassMotif): every graph of those classes must
  // contain its characteristic motif.
  EnzymesOptions opt;
  opt.num_graphs = 24;
  GraphDatabase db = GenerateEnzymes(opt);
  Graph helix_ring;
  {
    std::vector<NodeId> ring;
    for (int i = 0; i < 4; ++i) ring.push_back(helix_ring.AddNode(0));
    for (int i = 0; i < 4; ++i) {
      (void)helix_ring.AddEdge(ring[static_cast<size_t>(i)],
                               ring[static_cast<size_t>((i + 1) % 4)]);
    }
  }
  Graph sheet_ring;
  {
    std::vector<NodeId> ring;
    for (int i = 0; i < 5; ++i) ring.push_back(sheet_ring.AddNode(1));
    for (int i = 0; i < 5; ++i) {
      (void)sheet_ring.AddEdge(ring[static_cast<size_t>(i)],
                               ring[static_cast<size_t>((i + 1) % 5)]);
    }
  }
  MatchOptions mo;
  mo.semantics = MatchSemantics::kNonInduced;
  for (int i = 0; i < db.size(); ++i) {
    if (db.true_label(i) == 0) {
      EXPECT_TRUE(ContainsPattern(db.graph(i), helix_ring, mo))
          << "graph " << i;
    } else if (db.true_label(i) == 1) {
      EXPECT_TRUE(ContainsPattern(db.graph(i), sheet_ring, mo))
          << "graph " << i;
    }
  }
}

TEST(EnzymesTest, SameSeedIsDeterministic) {
  EnzymesOptions opt;
  opt.num_graphs = 12;
  opt.seed = 99;
  GraphDatabase a = GenerateEnzymes(opt);
  GraphDatabase b = GenerateEnzymes(opt);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.true_labels(), b.true_labels());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.graph(i).node_types(), b.graph(i).node_types())
        << "graph " << i;
    ASSERT_EQ(a.graph(i).num_edges(), b.graph(i).num_edges()) << "graph " << i;
    const auto& ea = a.graph(i).edges();
    const auto& eb = b.graph(i).edges();
    for (size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].u, eb[k].u) << "graph " << i << " edge " << k;
      EXPECT_EQ(ea[k].v, eb[k].v) << "graph " << i << " edge " << k;
    }
  }
}

TEST(EnzymesTest, DifferentSeedsChangeTheDraw) {
  EnzymesOptions opt;
  opt.num_graphs = 12;
  opt.seed = 1;
  GraphDatabase a = GenerateEnzymes(opt);
  opt.seed = 2;
  GraphDatabase b = GenerateEnzymes(opt);
  bool any_difference = false;
  for (int i = 0; i < a.size() && !any_difference; ++i) {
    if (a.graph(i).num_nodes() != b.graph(i).num_nodes() ||
        a.graph(i).num_edges() != b.graph(i).num_edges() ||
        a.graph(i).node_types() != b.graph(i).node_types()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace gvex
