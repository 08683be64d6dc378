#include "serve/pattern_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "serve/view_store.h"

namespace gvex {
namespace {

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> out;
  out.reserve(patterns.size());
  for (const Pattern& p : patterns) out.push_back(p.canonical_code());
  return out;
}

// The oracle: a legacy scan-mode store and an indexed store built over the
// same randomized view set must answer every query bit-identically.
class OracleParityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    store_ = synthetic::MakeSyntheticStore(GetParam());
    ViewStoreOptions legacy_opts;
    legacy_opts.use_index = false;
    legacy_ = std::make_unique<ViewStore>(&store_.db, legacy_opts);
    ViewStoreOptions indexed_opts;
    indexed_opts.use_index = true;
    // Exercise the sharded build on some seeds; results must not depend on
    // the worker count.
    indexed_opts.build_threads = GetParam() % 2 == 0 ? 4 : 1;
    indexed_ = std::make_unique<ViewStore>(&store_.db, indexed_opts);
    for (const ExplanationView& v : store_.views) {
      legacy_->AddView(v);
      indexed_->AddView(v);
    }
    // Query workload: every tier pattern, plus patterns the index has never
    // seen (exercises the isomorphism fallback), plus single-node probes.
    Rng rng(GetParam() + 1000);
    for (const ExplanationView& v : store_.views) {
      for (const Pattern& p : v.patterns) queries_.push_back(p);
    }
    for (int i = 0; i < 10; ++i) {
      Graph g = synthetic::RandomConnectedGraph(&rng, 2, 5, 3);
      auto p = Pattern::Create(std::move(g));
      ASSERT_TRUE(p.ok());
      queries_.push_back(std::move(p).value());
    }
    for (int t = 0; t < 4; ++t) queries_.push_back(Pattern::SingleNode(t));
  }

  synthetic::SyntheticStore store_;
  std::unique_ptr<ViewStore> legacy_;
  std::unique_ptr<ViewStore> indexed_;
  std::vector<Pattern> queries_;
};

TEST_P(OracleParityTest, LabelsAndTiersMatch) {
  EXPECT_EQ(legacy_->Labels(), indexed_->Labels());
  for (int label : legacy_->Labels()) {
    EXPECT_EQ(Codes(legacy_->PatternsForLabel(label)),
              Codes(indexed_->PatternsForLabel(label)));
  }
}

TEST_P(OracleParityTest, EveryQueryMatchesLegacyScan) {
  const std::vector<int> labels = legacy_->Labels();
  for (const Pattern& p : queries_) {
    EXPECT_EQ(legacy_->LabelsOfPattern(p), indexed_->LabelsOfPattern(p))
        << p.ToString();
    EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p),
              indexed_->DatabaseGraphsWithPattern(p))
        << p.ToString();
    for (int label : labels) {
      EXPECT_EQ(legacy_->GraphsWithPattern(label, p),
                indexed_->GraphsWithPattern(label, p))
          << "label " << label << " " << p.ToString();
      EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p, label),
                indexed_->DatabaseGraphsWithPattern(p, label))
          << "label " << label << " " << p.ToString();
    }
  }
  for (int label : labels) {
    EXPECT_EQ(Codes(legacy_->DiscriminativePatterns(label)),
              Codes(indexed_->DiscriminativePatterns(label)))
        << "label " << label;
  }
}

TEST_P(OracleParityTest, ViewServiceMatchesLegacyScan) {
  ViewService service(&store_.db);
  for (const ExplanationView& v : store_.views) {
    ASSERT_TRUE(service.AdmitView(v).ok());
  }
  EXPECT_EQ(legacy_->Labels(), service.Labels());
  for (const Pattern& p : queries_) {
    EXPECT_EQ(legacy_->LabelsOfPattern(p), service.LabelsOfPattern(p));
    for (int label : legacy_->Labels()) {
      EXPECT_EQ(legacy_->GraphsWithPattern(label, p),
                service.GraphsWithPattern(label, p));
      EXPECT_EQ(legacy_->DatabaseGraphsWithPattern(p, label),
                service.DatabaseGraphsWithPattern(p, label));
    }
  }
  for (int label : legacy_->Labels()) {
    EXPECT_EQ(Codes(legacy_->DiscriminativePatterns(label)),
              Codes(service.DiscriminativePatterns(label)));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedViewSets, OracleParityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(PatternIndexTest, EmptyIndexBehaves) {
  PatternIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Labels().empty());
  EXPECT_TRUE(index.LabelsOfPattern(Pattern::SingleNode(0)).empty());
  EXPECT_TRUE(index.DatabaseGraphsWithPattern(Pattern::SingleNode(0)).empty());
  EXPECT_TRUE(index.DiscriminativePatterns(0).empty());
  EXPECT_EQ(index.num_codes(), 0);
}

TEST(PatternIndexTest, PostingsExposeTierPositionsAndLabels) {
  auto store = synthetic::MakeSyntheticStore(7, /*num_labels=*/2);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  for (const auto& [label, view] : views) {
    for (size_t pos = 0; pos < view.patterns.size(); ++pos) {
      const PatternPostings* post =
          index.Find(view.patterns[pos].canonical_code());
      ASSERT_NE(post, nullptr);
      auto it = post->tier_position.find(label);
      ASSERT_NE(it, post->tier_position.end());
      EXPECT_EQ(it->second, static_cast<int>(pos));
      EXPECT_TRUE(std::find(post->labels.begin(), post->labels.end(),
                            label) != post->labels.end());
      // Coverage bitsets exist for EVERY label, not just carriers.
      EXPECT_EQ(post->subgraph_bits.size(), views.size());
      for (const auto& [bits_label, words] : post->subgraph_bits) {
        EXPECT_NE(words, nullptr) << "label " << bits_label;
      }
    }
  }
}

// A pattern whose canonical code can never appear in a synthetic store
// (node types there are < 10).
Pattern UnknownPattern() { return Pattern::SingleNode(99); }

TEST(PatternIndexTest, StatsCountFallbackAndIndexedQueries) {
  auto store = synthetic::MakeSyntheticStore(3);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  EXPECT_EQ(index.stats().fallback_scans.load(), 0u);

  // Indexed code: pure lookup, no fallback.
  const Pattern& known = views.begin()->second.patterns.front();
  (void)index.GraphsWithPattern(views.begin()->first, known);
  EXPECT_EQ(index.stats().fallback_scans.load(), 0u);
  EXPECT_EQ(index.stats().inconsistent_postings.load(), 0u);

  // Unknown code: falls back to a filtered containment scan, counted once
  // per query.
  (void)index.GraphsWithPattern(views.begin()->first, UnknownPattern());
  EXPECT_EQ(index.stats().fallback_scans.load(), 1u);
  (void)index.DatabaseGraphsWithPattern(UnknownPattern());
  EXPECT_EQ(index.stats().fallback_scans.load(), 2u);
  // No snapshot corruption anywhere in this test.
  EXPECT_EQ(index.stats().inconsistent_postings.load(), 0u);
}

// Satellite regression: a stored posting whose bitset map lost a label must
// not silently degrade — the query answers correctly via scan AND the
// inconsistency is counted.
TEST(PatternIndexTest, MissingLabelBitsetAnswersByScanAndCounts) {
  auto store = synthetic::MakeSyntheticStore(5, /*num_labels=*/2);
  const ViewMapPtr views = ShareViews([&] {
    std::map<int, ExplanationView> m;
    for (const auto& v : store.views) m[v.label] = v;
    return m;
  }());
  PatternIndex full = PatternIndex::Build(views, &store.db);

  const int label = views->begin()->first;
  const Pattern& victim = views->begin()->second->patterns.front();
  std::vector<StoredPostings> postings = full.ExportPostings();
  bool pruned = false;
  for (StoredPostings& p : postings) {
    if (p.code != victim.canonical_code()) continue;
    p.subgraph_bits.erase(std::remove_if(p.subgraph_bits.begin(),
                                         p.subgraph_bits.end(),
                                         [&](const auto& entry) {
                                           return entry.first == label;
                                         }),
                          p.subgraph_bits.end());
    pruned = true;
  }
  ASSERT_TRUE(pruned);

  PatternIndex broken = PatternIndex::FromStored(
      views, &store.db, full.match_options(), full.database_indexed(),
      postings);
  EXPECT_EQ(broken.GraphsWithPattern(label, victim),
            full.GraphsWithPattern(label, victim));
  EXPECT_GE(broken.stats().inconsistent_postings.load(), 1u);
  // The other label's bitset is intact — no count, same answer.
  const int other = std::next(views->begin())->first;
  const uint64_t counted = broken.stats().inconsistent_postings.load();
  EXPECT_EQ(broken.GraphsWithPattern(other, victim),
            full.GraphsWithPattern(other, victim));
  EXPECT_EQ(broken.stats().inconsistent_postings.load(), counted);
}

// Satellite regression: DiscriminativePatterns must survive a whole posting
// vanishing from the snapshot (Find returns null) — correct answer via
// scan, inconsistency counted, no crash.
TEST(PatternIndexTest, DiscriminativeSurvivesMissingPosting) {
  auto store = synthetic::MakeSyntheticStore(9, /*num_labels=*/3);
  const ViewMapPtr views = ShareViews([&] {
    std::map<int, ExplanationView> m;
    for (const auto& v : store.views) m[v.label] = v;
    return m;
  }());
  PatternIndex full = PatternIndex::Build(views, &store.db);

  for (const auto& [label, view] : *views) {
    const std::string victim = view->patterns.front().canonical_code();
    std::vector<StoredPostings> postings = full.ExportPostings();
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [&](const StoredPostings& p) {
                                    return p.code == victim;
                                  }),
                   postings.end());
    PatternIndex broken = PatternIndex::FromStored(
        views, &store.db, full.match_options(), full.database_indexed(),
        postings);
    EXPECT_EQ(Codes(broken.DiscriminativePatterns(label)),
              Codes(full.DiscriminativePatterns(label)))
        << "label " << label;
    EXPECT_GE(broken.stats().inconsistent_postings.load(), 1u);
  }
}

// The batched conjunction must equal intersecting the per-pattern answers —
// including fallback-scan (unknown-code) members and the k = 0 convention.
TEST(PatternIndexTest, GraphsWithAllPatternsMatchesIntersection) {
  auto store = synthetic::MakeSyntheticStore(13);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);

  for (const auto& [label, view] : views) {
    // k = 0: every graph of the label.
    std::vector<int> all;
    for (const auto& s : view.subgraphs) all.push_back(s.graph_index);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(index.GraphsWithAllPatterns(label, {}), all);

    std::vector<Pattern> batch;
    batch.push_back(view.patterns.front());
    batch.push_back(view.patterns.back());
    batch.push_back(Pattern::SingleNode(0));  // likely indexed, broad
    batch.push_back(UnknownPattern());        // forces the scan path
    std::vector<int> expect = index.GraphsWithPattern(label, batch[0]);
    for (size_t i = 1; i < batch.size(); ++i) {
      const std::vector<int> next = index.GraphsWithPattern(label, batch[i]);
      std::vector<int> kept;
      std::set_intersection(expect.begin(), expect.end(), next.begin(),
                            next.end(), std::back_inserter(kept));
      expect = std::move(kept);
    }
    EXPECT_EQ(index.GraphsWithAllPatterns(label, batch), expect)
        << "label " << label;
  }
  // Unknown label: empty, not a crash.
  EXPECT_TRUE(index.GraphsWithAllPatterns(999, {}).empty());
}

// Satellite regression: Save()'s ExportPostings must SHARE bitset storage
// with the live index (pointer copy), not deep-copy the words.
TEST(PatternIndexTest, ExportPostingsSharesBitsetStorage) {
  auto store = synthetic::MakeSyntheticStore(17);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex index = PatternIndex::Build(views, &store.db);
  const std::vector<StoredPostings> exported = index.ExportPostings();
  ASSERT_FALSE(exported.empty());
  for (const StoredPostings& p : exported) {
    const PatternPostings* live = index.Find(p.code);
    ASSERT_NE(live, nullptr);
    ASSERT_EQ(p.subgraph_bits.size(), live->subgraph_bits.size());
    for (const auto& [label, words] : p.subgraph_bits) {
      const CoverageWords* shared = FindCoverage(live->subgraph_bits, label);
      ASSERT_NE(shared, nullptr);
      EXPECT_EQ(words.get(), shared->get())
          << "deep copy detected for " << p.code << " label " << label;
    }
  }
}

TEST(PatternIndexTest, BuildIsDeterministicAcrossWorkerCounts) {
  auto store = synthetic::MakeSyntheticStore(11);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  PatternIndex::BuildOptions one;
  one.num_threads = 1;
  PatternIndex a = PatternIndex::Build(views, &store.db, one);
  for (int workers : {2, 8}) {
    PatternIndex::BuildOptions opt;
    opt.num_threads = workers;
    PatternIndex b = PatternIndex::Build(views, &store.db, opt);
    ASSERT_EQ(a.num_codes(), b.num_codes());
    for (const auto& [label, view] : views) {
      for (const Pattern& p : view.patterns) {
        const PatternPostings* pa = a.Find(p.canonical_code());
        const PatternPostings* pb = b.Find(p.canonical_code());
        ASSERT_NE(pa, nullptr);
        ASSERT_NE(pb, nullptr);
        EXPECT_EQ(pa->labels, pb->labels);
        EXPECT_EQ(pa->db_graphs, pb->db_graphs);
        EXPECT_TRUE(CoverageBitsEqual(pa->subgraph_bits, pb->subgraph_bits));
      }
    }
  }
}


// --- Incremental maintenance: Apply against a from-scratch Build. ---

// Database modes of the Apply oracle: indexed, unindexed, and no database.
enum class DbMode { kIndexed, kUnindexed, kNull };

struct ApplyOracleParam {
  uint64_t seed;
  int num_threads;
  DbMode db;
};

void ExpectSamePostings(const std::vector<StoredPostings>& got,
                        const std::vector<StoredPostings>& want,
                        const std::string& step) {
  ASSERT_EQ(got.size(), want.size()) << step;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << step << ": posting " << want[i].code;
  }
}

class ApplyOracleTest : public ::testing::TestWithParam<ApplyOracleParam> {};

// Seeded random admit sequences. Each step replaces one or two labels'
// views (tier rotations, tiers gaining or losing codes, a subgraph list
// growing or shrinking, a brand-new label, a removed label) and derives
// the next index with Apply. After EVERY step its postings must equal a
// scratch Build over the same views, unchanged labels must share their
// coverage words with the previous epoch, and a pure rotation must cost
// exactly (codes x changed labels' subgraphs) checks.
TEST_P(ApplyOracleTest, EveryStepMatchesScratchBuild) {
  const ApplyOracleParam param = GetParam();
  synthetic::SyntheticStoreOptions shape;
  shape.num_labels = 4;
  shape.graphs_per_label = 5;
  shape.patterns_per_label = 6;
  const synthetic::SyntheticStore store =
      synthetic::MakeSyntheticStore(param.seed, shape);
  PatternIndex::BuildOptions options;
  options.num_threads = param.num_threads;
  options.index_database = param.db == DbMode::kIndexed;
  const GraphDatabase* db = param.db == DbMode::kNull ? nullptr : &store.db;

  std::map<int, ExplanationView> plain;
  for (int label = 0; label < 3; ++label) {
    plain[label] = store.views[static_cast<size_t>(label)];
  }
  ViewMapPtr views = ShareViews(plain);
  PatternIndex index = PatternIndex::Build(views, db, options);
  Rng rng(param.seed * 7919 + 3);
  int next_label = 10;

  for (int step = 0; step < 30; ++step) {
    auto next = std::make_shared<ViewMap>(*views);
    std::set<int> changed;
    bool rotation_only = true;
    const int edits = rng.NextInt(0, 3) == 0 ? 2 : 1;
    for (int e = 0; e < edits; ++e) {
      // Source views for edits: any current label, or any store view.
      std::vector<int> labels;
      for (const auto& [label, view] : *next) labels.push_back(label);
      const int op = static_cast<int>(rng.NextInt(0, 6));
      if (labels.empty() || op == 5) {
        // Brand-new label (a copy of a store view under a fresh id).
        ExplanationView v =
            store.views[rng.NextUint(store.views.size())];
        v.label = next_label++;
        changed.insert(v.label);
        (*next)[v.label] = std::make_shared<const ExplanationView>(v);
        rotation_only = false;
        continue;
      }
      const int label = labels[rng.NextUint(labels.size())];
      if (op == 6 && next->size() > 1) {
        next->erase(label);  // a label leaves the store
        changed.insert(label);
        rotation_only = false;
        continue;
      }
      ExplanationView v = *next->at(label);
      const ExplanationView& donor =
          store.views[rng.NextUint(store.views.size())];
      switch (op) {
        case 0:
        case 1:
          if (v.patterns.size() > 1) {
            std::rotate(v.patterns.begin(),
                        v.patterns.begin() + 1 +
                            static_cast<long>(rng.NextUint(
                                v.patterns.size() - 1)),
                        v.patterns.end());
          }
          break;
        case 2: {
          // The tier gains codes: a donor's patterns and a fresh one.
          std::set<std::string> have;
          for (const Pattern& p : v.patterns) have.insert(p.canonical_code());
          for (const Pattern& p : donor.patterns) {
            if (have.insert(p.canonical_code()).second) {
              v.patterns.push_back(p);
              break;
            }
          }
          const Graph& src = v.subgraphs[rng.NextUint(v.subgraphs.size())]
                                 .subgraph;
          Pattern fresh = synthetic::RandomPatternFrom(src, &rng, 2, 5);
          if (have.insert(fresh.canonical_code()).second) {
            v.patterns.push_back(std::move(fresh));
          }
          rotation_only = false;
          break;
        }
        case 3:
          // The tier loses codes (possibly the last carrier of some).
          v.patterns.resize(v.patterns.size() / 2);
          rotation_only = false;
          break;
        case 4:
          // The subgraph list changes: shrink, or grow from a donor.
          if (v.subgraphs.size() > 1 && rng.NextInt(0, 1) == 0) {
            v.subgraphs.erase(v.subgraphs.begin() +
                              static_cast<long>(rng.NextUint(
                                  v.subgraphs.size())));
          } else {
            v.subgraphs.push_back(
                donor.subgraphs[rng.NextUint(donor.subgraphs.size())]);
          }
          rotation_only = false;
          break;
      }
      changed.insert(label);
      (*next)[label] = std::make_shared<const ExplanationView>(std::move(v));
    }
    if (changed.empty()) continue;

    const std::string where = "step " + std::to_string(step);
    PatternIndex applied =
        PatternIndex::Apply(index, next, changed, param.num_threads);
    const PatternIndex scratch = PatternIndex::Build(next, db, options);
    ExpectSamePostings(applied.ExportPostings(), scratch.ExportPostings(),
                       where);
    EXPECT_EQ(applied.database_indexed(), scratch.database_indexed());
    EXPECT_LE(applied.containment_checks(), scratch.containment_checks())
        << where;

    // Untouched labels keep their words: pointer-equal to the previous
    // epoch's for every code both epochs carry.
    for (const StoredPostings& post : applied.ExportPostings()) {
      const PatternPostings* old = index.Find(post.code);
      if (old == nullptr) continue;
      for (const auto& [label, words] : post.subgraph_bits) {
        if (changed.count(label) != 0) continue;
        const CoverageWords* prev_words =
            FindCoverage(old->subgraph_bits, label);
        ASSERT_NE(prev_words, nullptr) << where << ": label " << label;
        EXPECT_EQ(words.get(), prev_words->get())
            << where << ": code " << post.code << " label " << label;
      }
    }
    if (rotation_only) {
      uint64_t expected = 0;
      for (int label : changed) {
        expected += next->at(label)->subgraphs.size();
      }
      expected *= static_cast<uint64_t>(applied.num_codes());
      EXPECT_EQ(applied.containment_checks(), expected) << where;
    }
    views = std::move(next);
    index = std::move(applied);
  }
}

std::string ApplyOracleName(
    const ::testing::TestParamInfo<ApplyOracleParam>& info) {
  const char* db = info.param.db == DbMode::kIndexed     ? "DbIndexed"
                   : info.param.db == DbMode::kUnindexed ? "DbUnindexed"
                                                         : "NullDb";
  return "Seed" + std::to_string(info.param.seed) + "Threads" +
         std::to_string(info.param.num_threads) + db;
}

INSTANTIATE_TEST_SUITE_P(
    RandomAdmitSequences, ApplyOracleTest,
    ::testing::Values(ApplyOracleParam{1, 1, DbMode::kIndexed},
                      ApplyOracleParam{2, 4, DbMode::kIndexed},
                      ApplyOracleParam{3, 1, DbMode::kUnindexed},
                      ApplyOracleParam{4, 4, DbMode::kUnindexed},
                      ApplyOracleParam{5, 1, DbMode::kNull},
                      ApplyOracleParam{6, 4, DbMode::kNull}),
    ApplyOracleName);

// An admission that re-admits one label's view with an unchanged code set
// (the serving workload's shape) re-checks only that label's subgraphs —
// no database graph — and the registry counter records exactly that.
TEST(PatternIndexTest, ReadmitChecksOnlyTheChangedLabel) {
  synthetic::SyntheticStoreOptions shape;
  shape.num_labels = 8;
  const synthetic::SyntheticStore store =
      synthetic::MakeSyntheticStore(23, shape);
  std::map<int, ExplanationView> plain;
  for (const ExplanationView& v : store.views) plain[v.label] = v;
  ViewMapPtr views = ShareViews(plain);
  const PatternIndex base = PatternIndex::Build(views, &store.db);
  uint64_t subgraphs = 0;
  for (const auto& [label, view] : *views) subgraphs += view->subgraphs.size();
  const uint64_t codes = static_cast<uint64_t>(base.num_codes());
  EXPECT_EQ(base.containment_checks(),
            codes * (subgraphs + static_cast<uint64_t>(store.db.size())));

  auto next = std::make_shared<ViewMap>(*views);
  (*next)[3] = std::make_shared<const ExplanationView>(
      synthetic::VersionedView(store, 3, 0));
  obs::Counter* counter = obs::Metrics().GetCounter(
      "gvex_index_containment_checks_total",
      "Pattern containment checks run by PatternIndex Build and Apply");
  const uint64_t before = counter->Value();
  const PatternIndex applied = PatternIndex::Apply(base, next, {3});
  EXPECT_EQ(applied.containment_checks(),
            codes * next->at(3)->subgraphs.size());
  EXPECT_EQ(counter->Value() - before, applied.containment_checks());
  ExpectSamePostings(applied.ExportPostings(),
                     PatternIndex::Build(next, &store.db).ExportPostings(),
                     "readmit");
}

}  // namespace
}  // namespace gvex
