// Randomized cross-checks: reference (brute-force) implementations validate
// the optimized substrates on random inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "la/matrix_ops.h"
#include "la/sparse.h"
#include "pattern/matcher.h"
#include "util/rng.h"

namespace gvex {
namespace {

Graph RandomGraph(Rng* rng, int n, int types, double edge_prob) {
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode(static_cast<int>(rng->NextUint(static_cast<uint64_t>(types))));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng->NextBool(edge_prob)) (void)g.AddEdge(u, v);
    }
  }
  return g;
}

// Reference matcher: try every injective assignment (permutation prefix).
int BruteForceCountMatches(const Graph& p, const Graph& g,
                           MatchSemantics semantics) {
  const int np = p.num_nodes();
  const int ng = g.num_nodes();
  if (np > ng) return 0;
  std::vector<int> targets(static_cast<size_t>(ng));
  std::iota(targets.begin(), targets.end(), 0);
  int count = 0;
  // Enumerate all np-permutations of targets.
  std::vector<int> current;
  std::vector<bool> used(static_cast<size_t>(ng), false);
  std::function<void()> recurse = [&]() {
    if (static_cast<int>(current.size()) == np) {
      // Validate.
      for (int i = 0; i < np; ++i) {
        if (p.node_type(i) != g.node_type(current[static_cast<size_t>(i)])) {
          return;
        }
      }
      for (int a = 0; a < np; ++a) {
        for (int b = 0; b < np; ++b) {
          if (a == b) continue;
          const bool pe = p.HasEdge(a, b) || p.HasEdge(b, a);
          const bool ge = g.HasEdge(current[static_cast<size_t>(a)],
                                    current[static_cast<size_t>(b)]) ||
                          g.HasEdge(current[static_cast<size_t>(b)],
                                    current[static_cast<size_t>(a)]);
          if (pe && !ge) return;
          if (!pe && ge && semantics == MatchSemantics::kInduced) return;
        }
      }
      ++count;
      return;
    }
    for (int t = 0; t < ng; ++t) {
      if (used[static_cast<size_t>(t)]) continue;
      used[static_cast<size_t>(t)] = true;
      current.push_back(t);
      recurse();
      current.pop_back();
      used[static_cast<size_t>(t)] = false;
    }
  };
  recurse();
  return count;
}

class MatcherPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherPropertyTest, Vf2AgreesWithBruteForceInduced) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  Graph target = RandomGraph(&rng, 6, 2, 0.4);
  Graph pattern = RandomGraph(&rng, 3, 2, 0.6);
  // Pattern must be connected for our matcher's ordering; skip otherwise by
  // forcing a spanning path.
  for (int i = 1; i < pattern.num_nodes(); ++i) {
    if (!pattern.HasEdge(i - 1, i) && !pattern.HasEdge(i, i - 1)) {
      (void)pattern.AddEdge(i - 1, i);
    }
  }
  for (auto semantics :
       {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
    MatchOptions opt;
    opt.semantics = semantics;
    opt.max_matches = 0;  // unlimited
    auto matches = FindMatches(pattern, target, opt);
    const int expected = BruteForceCountMatches(pattern, target, semantics);
    EXPECT_EQ(static_cast<int>(matches.size()), expected)
        << "semantics " << static_cast<int>(semantics);
    // All reported matches must be distinct and injective.
    std::set<std::vector<NodeId>> uniq(matches.begin(), matches.end());
    EXPECT_EQ(uniq.size(), matches.size());
    for (const auto& m : matches) {
      std::set<NodeId> inj(m.begin(), m.end());
      EXPECT_EQ(inj.size(), m.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MatcherPropertyTest,
                         ::testing::Range(0, 20));

class SparsePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparsePropertyTest, SparseMultiplyAgreesWithDense) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 37 + 3);
  const int n = 4 + static_cast<int>(rng.NextUint(5));
  const int m = 3 + static_cast<int>(rng.NextUint(4));
  std::vector<SparseMatrix::Triplet> trips;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (rng.NextBool(0.3)) {
        trips.push_back({i, j, rng.NextFloat(-2.0f, 2.0f)});
      }
    }
  }
  SparseMatrix s(n, m, trips);
  Matrix x(m, 3);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < 3; ++j) x.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  Matrix dense = s.ToDense();
  Matrix expected = MatMul(dense, x);
  Matrix got = s.Multiply(x);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(got.at(i, j), expected.at(i, j), 1e-4f);
    }
  }
  // Transposed multiply.
  Matrix y(n, 2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 2; ++j) y.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  Matrix expected_t = MatMul(dense.Transposed(), y);
  Matrix got_t = s.MultiplyTransposed(y);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(got_t.at(i, j), expected_t.at(i, j), 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SparsePropertyTest,
                         ::testing::Range(0, 15));

class GemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmPropertyTest, TransposeVariantsConsistent) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 71 + 11);
  const int a = 2 + static_cast<int>(rng.NextUint(4));
  const int b = 2 + static_cast<int>(rng.NextUint(4));
  const int c = 2 + static_cast<int>(rng.NextUint(4));
  Matrix x(a, b);
  Matrix y(b, c);
  for (int i = 0; i < a; ++i) {
    for (int j = 0; j < b; ++j) x.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < c; ++j) y.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  Matrix direct = MatMul(x, y);
  Matrix via_trans_a = MatMulTransA(x.Transposed(), y);
  Matrix via_trans_b = MatMulTransB(x, y.Transposed());
  for (int i = 0; i < a; ++i) {
    for (int j = 0; j < c; ++j) {
      EXPECT_NEAR(direct.at(i, j), via_trans_a.at(i, j), 1e-4f);
      EXPECT_NEAR(direct.at(i, j), via_trans_b.at(i, j), 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GemmPropertyTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace gvex
