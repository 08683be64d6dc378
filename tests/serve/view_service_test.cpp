#include "serve/view_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/scan_reference.h"
#include "serve/synthetic_store.h"

namespace gvex {
namespace {

// A deterministic "versioned" view for the snapshot-consistency stress: in
// version v the tier holds exactly v+1 single-node patterns (types 0..v) and
// the lower tier holds v+1 one-node subgraphs of type 0, all pointing at
// graph index v. A consistent snapshot therefore satisfies
//   |patterns| == |GraphsWithPattern(0, SingleNode(0))| == v + 1
// and every returned graph id equals v — any mix of two versions breaks it.
ExplanationView VersionedView(int v) {
  ExplanationView view;
  view.label = 0;
  for (int t = 0; t <= v; ++t) view.patterns.push_back(Pattern::SingleNode(t));
  for (int i = 0; i <= v; ++i) {
    ExplanationSubgraph sub;
    sub.graph_index = v;
    Graph g;
    g.AddNode(0);
    sub.nodes = {0};
    sub.subgraph = std::move(g);
    view.subgraphs.push_back(std::move(sub));
  }
  return view;
}

TEST(ViewServiceTest, EmptyServiceServesEpochZero) {
  ViewService service(nullptr);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_TRUE(service.Labels().empty());
  EXPECT_TRUE(service.PatternsForLabel(0).empty());
  EXPECT_TRUE(service.LabelsOfPattern(Pattern::SingleNode(0)).empty());
  EXPECT_TRUE(service.DiscriminativePatterns(0).empty());
}

TEST(ViewServiceTest, AdmissionPublishesNewEpochs) {
  auto store = synthetic::MakeSyntheticStore(3, /*num_labels=*/2);
  ViewService service(&store.db);
  ASSERT_TRUE(service.AdmitView(store.views[0]).ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.Labels(), std::vector<int>{0});
  ASSERT_TRUE(service.AdmitView(store.views[1]).ok());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.Labels(), (std::vector<int>{0, 1}));
  // Re-admitting a label replaces its view in a fresh epoch.
  ExplanationView replacement = store.views[0];
  replacement.patterns.clear();
  replacement.patterns.push_back(Pattern::SingleNode(42));
  ASSERT_TRUE(service.AdmitView(replacement).ok());
  EXPECT_EQ(service.epoch(), 3u);
  ASSERT_EQ(service.PatternsForLabel(0).size(), 1u);
  EXPECT_EQ(service.PatternsForLabel(0)[0].canonical_code(),
            Pattern::SingleNode(42).canonical_code());
}

TEST(ViewServiceTest, RejectsUnlabeledViews) {
  ViewService service(nullptr);
  ExplanationView bad;  // label stays -1
  EXPECT_FALSE(service.AdmitView(bad).ok());
  EXPECT_FALSE(service.AdmitViews({}).ok());
  EXPECT_EQ(service.epoch(), 0u);
}

TEST(ViewServiceTest, AdmitViewsPublishesOneEpoch) {
  auto store = synthetic::MakeSyntheticStore(5, /*num_labels=*/3);
  ViewService service(&store.db);
  ASSERT_TRUE(service.AdmitViews(store.views).ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.Labels(), (std::vector<int>{0, 1, 2}));
}

// One AdmitViews call applies its views in order, so of two views of a
// label the later is served — what registering them one by one in the
// scan reference gives. gvex_cli query admits a whole views file this way.
TEST(ViewServiceTest, OneAdmissionServesTheLaterViewOfALabel) {
  auto store = synthetic::MakeSyntheticStore(21, /*num_labels=*/2);
  ExplanationView later = store.views[1];
  later.label = store.views[0].label;
  ViewService service(&store.db);
  ASSERT_TRUE(service.AdmitViews({store.views[0], later}).ok());
  testing::ScanReference scan(&store.db);
  scan.AddView(store.views[0]);
  scan.AddView(later);

  EXPECT_EQ(service.epoch(), 1u);
  ASSERT_EQ(service.Labels(), scan.Labels());
  const int label = later.label;
  const std::vector<Pattern> served = service.PatternsForLabel(label);
  ASSERT_EQ(served.size(), later.patterns.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].canonical_code(), later.patterns[i].canonical_code());
  }
  for (const ExplanationView& v : store.views) {
    for (const Pattern& p : v.patterns) {
      EXPECT_EQ(service.GraphsWithPattern(label, p),
                scan.GraphsWithPattern(label, p));
      EXPECT_EQ(service.LabelsOfPattern(p), scan.LabelsOfPattern(p));
    }
  }
}

TEST(ViewServiceTest, CacheHitsAndEpochInvalidation) {
  auto store = synthetic::MakeSyntheticStore(9, /*num_labels=*/2);
  ViewService service(&store.db);
  ASSERT_TRUE(service.AdmitViews(store.views).ok());
  const Pattern probe = store.views[0].patterns[0];
  auto first = service.GraphsWithPattern(0, probe);
  auto second = service.GraphsWithPattern(0, probe);
  EXPECT_EQ(first, second);
  ViewServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  // A new epoch changes the cache key, so the same query misses once more —
  // stale entries are never served.
  ASSERT_TRUE(service.AdmitView(store.views[1]).ok());
  auto third = service.GraphsWithPattern(0, probe);
  EXPECT_EQ(first, third);  // label-0 view unchanged by the admission
  stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 2u);
}

// A batch runs in order on one snapshot, so with no admission racing it
// each answer equals the single query's.
TEST(ViewServiceTest, BatchMatchesSingleQueries) {
  auto store = synthetic::MakeSyntheticStore(13);
  ViewService service(&store.db);
  ASSERT_TRUE(service.AdmitViews(store.views).ok());

  std::vector<ViewQuery> batch;
  {
    ViewQuery q;
    q.kind = QueryKind::kLabels;
    batch.push_back(q);
  }
  for (const ExplanationView& v : store.views) {
    for (const Pattern& p : v.patterns) {
      ViewQuery q;
      q.kind = QueryKind::kGraphsWithPattern;
      q.label = v.label;
      q.pattern = p;
      batch.push_back(q);
      q.kind = QueryKind::kLabelsOfPattern;
      batch.push_back(q);
      q.kind = QueryKind::kDatabaseGraphsWithPattern;
      batch.push_back(q);
    }
    ViewQuery q;
    q.kind = QueryKind::kPatternsForLabel;
    q.label = v.label;
    batch.push_back(q);
    q.kind = QueryKind::kDiscriminativePatterns;
    batch.push_back(q);
  }

  const std::vector<ViewQueryResult> got = service.ExecuteBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const ViewQuery& q = batch[i];
    EXPECT_EQ(got[i].epoch, 1u) << "query " << i;
    std::vector<int> ids;
    std::vector<Pattern> patterns;
    switch (q.kind) {
      case QueryKind::kLabels:
        ids = service.Labels();
        break;
      case QueryKind::kPatternsForLabel:
        patterns = service.PatternsForLabel(q.label);
        break;
      case QueryKind::kGraphsWithPattern:
        ids = service.GraphsWithPattern(q.label, q.pattern);
        break;
      case QueryKind::kLabelsOfPattern:
        ids = service.LabelsOfPattern(q.pattern);
        break;
      case QueryKind::kDatabaseGraphsWithPattern:
        ids = service.DatabaseGraphsWithPattern(q.pattern, q.label);
        break;
      case QueryKind::kDiscriminativePatterns:
        patterns = service.DiscriminativePatterns(q.label);
        break;
    }
    EXPECT_EQ(got[i].ids, ids) << "query " << i;
    ASSERT_EQ(got[i].patterns.size(), patterns.size()) << "query " << i;
    for (size_t j = 0; j < patterns.size(); ++j) {
      EXPECT_EQ(got[i].patterns[j].canonical_code(),
                patterns[j].canonical_code());
    }
  }
}

// The acceptance-criterion stress: concurrent readers during live view
// admission observe only complete epochs. Each reader runs consistency
// batches (one snapshot per batch) while the writer publishes versioned
// views; any torn or mixed state breaks the per-version invariant.
void RunAdmissionStress(int num_readers) {
  constexpr int kVersions = 24;
  ViewService service(nullptr);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&service, &done, &failures] {
      const Pattern probe = Pattern::SingleNode(0);
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::vector<ViewQuery> batch(3);
        batch[0].kind = QueryKind::kPatternsForLabel;
        batch[0].label = 0;
        batch[1].kind = QueryKind::kGraphsWithPattern;
        batch[1].label = 0;
        batch[1].pattern = probe;
        batch[2].kind = QueryKind::kLabels;
        const auto results = service.ExecuteBatch(batch);
        const uint64_t epoch = results[0].epoch;
        // Epochs advance monotonically per reader.
        if (epoch < last_epoch) ++failures;
        last_epoch = epoch;
        if (epoch == 0) continue;  // initial empty snapshot
        const int v = static_cast<int>(results[0].patterns.size()) - 1;
        // Complete-version invariant (see VersionedView).
        if (v < 0 || v >= kVersions) {
          ++failures;
          continue;
        }
        if (results[1].ids.size() != static_cast<size_t>(v + 1)) ++failures;
        for (int id : results[1].ids) {
          if (id != v) ++failures;
        }
        if (results[2].ids != std::vector<int>{0}) ++failures;
        if (results[1].epoch != epoch || results[2].epoch != epoch) {
          ++failures;
        }
      }
    });
  }

  for (int v = 0; v < kVersions; ++v) {
    ASSERT_TRUE(service.AdmitView(VersionedView(v)).ok());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.epoch(), static_cast<uint64_t>(kVersions));
}

TEST(ViewServiceConcurrencyTest, ReadersSeeOnlyCompleteEpochs1Worker) {
  RunAdmissionStress(1);
}

TEST(ViewServiceConcurrencyTest, ReadersSeeOnlyCompleteEpochs2Workers) {
  RunAdmissionStress(2);
}

TEST(ViewServiceConcurrencyTest, ReadersSeeOnlyCompleteEpochs8Workers) {
  RunAdmissionStress(8);
}

TEST(ViewServiceConcurrencyTest, ConcurrentAdmittersCombineIntoEpochs) {
  ViewService service(nullptr);
  constexpr int kPerWriter = 8;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&service, w] {
      uint64_t last_epoch = 0;
      for (int i = 0; i < kPerWriter; ++i) {
        ExplanationView view;
        view.label = w;  // one label per writer: last admission wins
        view.patterns.push_back(Pattern::SingleNode(i));
        auto epoch = service.AdmitView(std::move(view));
        ASSERT_TRUE(epoch.ok());
        // A writer's own admissions land in strictly increasing epochs
        // even when the combining queue coalesces them with other
        // writers' (two of OUR calls can never share a batch — the next
        // one starts only after the previous returned).
        ASSERT_GT(epoch.value(), last_epoch);
        last_epoch = epoch.value();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  // The combining queue publishes each batch as ONE epoch, so the final
  // epoch counts batches, not admissions: at most one per call, at least
  // one per round of any single writer.
  EXPECT_LE(service.epoch(), static_cast<uint64_t>(4 * kPerWriter));
  EXPECT_GE(service.epoch(), static_cast<uint64_t>(kPerWriter));
  const ViewServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted_views, static_cast<uint64_t>(4 * kPerWriter));
  EXPECT_EQ(stats.admitted_batches, static_cast<uint64_t>(4 * kPerWriter));
  EXPECT_EQ(stats.epoch, service.epoch());
  EXPECT_EQ(service.Labels(), (std::vector<int>{0, 1, 2, 3}));
  // Every label holds its writer's LAST view (admissions are ordered).
  for (int w = 0; w < 4; ++w) {
    ASSERT_EQ(service.PatternsForLabel(w).size(), 1u);
    EXPECT_EQ(service.PatternsForLabel(w)[0].canonical_code(),
              Pattern::SingleNode(kPerWriter - 1).canonical_code());
  }
}

// stats() must never report a torn mid-batch view: the epoch and the
// admission counters come from ONE published snapshot, so a batch of K
// views is visible in the counters all-or-nothing.
TEST(ViewServiceConcurrencyTest, StatsAreConsistentUnderBatchedAdmission) {
  constexpr int kBatchViews = 3;
  constexpr int kRounds = 16;
  ViewService service(nullptr);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> watchers;
  for (int t = 0; t < 2; ++t) {
    watchers.emplace_back([&service, &done, &failures] {
      uint64_t last_admitted = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ViewServiceStats s = service.stats();
        // Every admission in this test is a batch of exactly kBatchViews
        // views, so a torn counter would show a non-multiple.
        if (s.admitted_views % kBatchViews != 0) ++failures;
        // Each published epoch carried at least one batch.
        if (s.admitted_views < s.epoch * kBatchViews) ++failures;
        if (s.admitted_views < last_admitted) ++failures;  // monotone
        last_admitted = s.admitted_views;
      }
    });
  }

  std::vector<std::thread> admitters;
  for (int w = 0; w < 4; ++w) {
    admitters.emplace_back([&service, w] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<ExplanationView> batch;
        for (int v = 0; v < kBatchViews; ++v) {
          ExplanationView view;
          view.label = w * kBatchViews + v;
          view.patterns.push_back(Pattern::SingleNode(i));
          batch.push_back(std::move(view));
        }
        ASSERT_TRUE(service.AdmitViews(std::move(batch)).ok());
      }
    });
  }
  for (std::thread& t : admitters) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : watchers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ViewServiceStats s = service.stats();
  EXPECT_EQ(s.admitted_views, static_cast<uint64_t>(4 * kRounds * kBatchViews));
  EXPECT_EQ(s.admitted_batches, static_cast<uint64_t>(4 * kRounds));
}

}  // namespace
}  // namespace gvex
