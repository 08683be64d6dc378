// Streaming/anytime hardening: interleaved insert/query workloads. While
// StreamGVEX prefix views are admitted into a live ViewService, concurrent
// query threads must only ever observe COMPLETE admitted versions — never
// a torn pattern tier, never half of a multi-view batch admission. This
// closes the ROADMAP item left open by stream_cancellation_test (which
// covered cancellation but not admissions racing queries).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "explain/stream_gvex.h"
#include "serve/view_service.h"
#include "test_util.h"

namespace gvex {
namespace {

Configuration StreamConfig() {
  Configuration c;
  c.theta = 0.05f;
  c.r = 0.3f;
  c.gamma = 0.5f;
  c.default_bound = {2, 8};
  c.verify_mode = VerifyMode::kConsistentOnly;
  c.miner.max_pattern_nodes = 3;
  // Repair may pull in unseen nodes; the prefix-version story is exact
  // without it (same choice as the deterministic cancellation test).
  c.counterfactual_repair = false;
  return c;
}

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> codes;
  codes.reserve(patterns.size());
  for (const Pattern& p : patterns) codes.push_back(p.canonical_code());
  return codes;
}

TEST(StreamInterleaveTest, QueriesNeverObserveATornAdmission) {
  const auto& fx = testing::GetTrainedFixture();
  StreamGvex algo(&fx.model, StreamConfig());
  const std::vector<int> labels = {0, 1};
  const std::vector<double> fractions = {0.34, 0.67, 1.0};

  // Precompute every version a query may legally observe: the anytime
  // views after 34% / 67% / 100% of each node stream (deterministic for a
  // fixed seed/model — pinned by PrefixOrderCancellationIsDeterministic).
  std::vector<std::vector<ExplanationView>> versions(labels.size());
  std::vector<std::set<std::vector<std::string>>> legal(labels.size());
  for (size_t li = 0; li < labels.size(); ++li) {
    for (double fraction : fractions) {
      auto view = algo.GenerateViewPartial(fx.db, labels[li], fraction);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      legal[li].insert(Codes(view.value().patterns));
      versions[li].push_back(std::move(view).value());
    }
  }

  ViewService service(&fx.db);
  const std::vector<std::string> final0 = Codes(versions[0].back().patterns);
  const std::vector<std::string> final1 = Codes(versions[1].back().patterns);
  // The cross-label atomicity check below is only sound when the final
  // tier is distinguishable from every earlier prefix (a converged stream
  // could legally show the "final" codes before the final batch).
  bool pair_checkable = true;
  for (size_t li = 0; li < labels.size(); ++li) {
    const auto& final_codes = li == 0 ? final0 : final1;
    for (size_t v = 0; v + 1 < versions[li].size(); ++v) {
      if (Codes(versions[li][v].patterns) == final_codes) {
        pair_checkable = false;
      }
    }
  }
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        // One snapshot for the whole batch: both labels answer from the
        // SAME epoch, so cross-label atomicity is checkable.
        std::vector<ViewQuery> batch(2);
        batch[0].kind = QueryKind::kPatternsForLabel;
        batch[0].label = labels[0];
        batch[1].kind = QueryKind::kPatternsForLabel;
        batch[1].label = labels[1];
        const auto results = service.ExecuteBatch(batch);
        if (results[0].epoch < last_epoch) ++torn;  // monotone epochs
        last_epoch = results[0].epoch;
        const auto codes0 = Codes(results[0].patterns);
        const auto codes1 = Codes(results[1].patterns);
        // Every observed tier is EXACTLY one admitted prefix version —
        // a torn admission would expose a mix.
        if (!codes0.empty() && legal[0].count(codes0) == 0) ++torn;
        if (!codes1.empty() && legal[1].count(codes1) == 0) ++torn;
        // The FINAL versions are only ever admitted together as one
        // AdmitViews batch: observing one without the other means a
        // multi-view admission published partially.
        if (pair_checkable && (codes0 == final0) != (codes1 == final1)) {
          ++torn;
        }
      }
    });
  }

  // The writer admits growing prefixes label-by-label (live admissions
  // racing the readers), then both final views as ONE batch.
  for (size_t v = 0; v + 1 < fractions.size(); ++v) {
    for (size_t li = 0; li < labels.size(); ++li) {
      ASSERT_TRUE(service.AdmitView(versions[li][v]).ok());
      std::this_thread::yield();
    }
  }
  std::vector<ExplanationView> finals = {versions[0].back(),
                                         versions[1].back()};
  ASSERT_TRUE(service.AdmitViews(std::move(finals)).ok());

  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // The end state is the final version of both labels.
  EXPECT_EQ(Codes(service.PatternsForLabel(labels[0])), final0);
  EXPECT_EQ(Codes(service.PatternsForLabel(labels[1])), final1);
  const ViewServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted_views, 2 * (fractions.size() - 1) + 2);
}

}  // namespace
}  // namespace gvex
