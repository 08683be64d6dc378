// Serving-path benchmark: the indexed ViewService against the linear scan
// of tests/serve/scan_reference.h on a 1k-pattern store. Measures end-to-end query
// throughput (queries/sec) and tail latency (p50/p99) on a mixed workload
// — per-label containment queries, exact tier lookups, full-database
// pattern queries, and discriminative-pattern queries — and records the
// hardware-independent speedup ratio `scan_speedup` (same machine, same
// workload, scan time / indexed time).
//
// A second, fallback-heavy workload times queries whose canonical code is
// NOT indexed — the path every non-exact containment query takes. Both
// front ends scan there; the scan reference with the blind backtracking
// oracle (tests/pattern/blind_matcher.h), the index with the production
// candidate-filtered matcher (pattern/matcher.h), and the
// hardware-independent ratio `fallback_speedup` (blind scan time / filtered
// scan time, same machine, same queries) records the filtering win.
//
// The run merge-writes a "serving" section into BENCH_serving.json
// (override with GVEX_BENCH_OUT); tools/check_bench.py gates
// `scan_speedup` against an absolute >=10x floor — the acceptance bar for
// the indexed read path — and `fallback_speedup` against >=3x, plus the
// usual `_sec` regression checks.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/scan_reference.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "util/timer.h"

using namespace gvex;

namespace {

constexpr int kNumLabels = 8;
constexpr int kPatternsPerLabel = 125;  // 8 x 125 = 1000 tier patterns
constexpr int kGraphsPerLabel = 16;

// One shared generator (serve/synthetic_store.h) builds both this store and
// the one the oracle-parity tests pin, so the bench times the same
// structural shape the tests verify.
synthetic::SyntheticStore MakeStore(uint64_t seed) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kNumLabels;
  opt.graphs_per_label = kGraphsPerLabel;
  opt.patterns_per_label = kPatternsPerLabel;
  opt.min_nodes = 10;
  opt.max_nodes = 16;
  opt.num_types = 4;
  opt.pattern_min_nodes = 2;
  opt.pattern_max_nodes = 6;
  opt.subgraph_num = 3;  // explanation subgraphs keep ~3/4 of each graph
  opt.subgraph_den = 4;
  return synthetic::MakeSyntheticStore(seed, opt);
}

// --- The mixed query workload, runnable against both front ends (the scan
// reference and ViewService expose the same query signatures). Returns a checksum so
// the two paths can be asserted identical. ---

template <typename Front>
uint64_t RunOne(const Front& front, const ViewQuery& q) {
  uint64_t sum = 0;
  switch (q.kind) {
    case QueryKind::kGraphsWithPattern:
      for (int id : front.GraphsWithPattern(q.label, q.pattern)) {
        sum += static_cast<uint64_t>(id) + 1;
      }
      break;
    case QueryKind::kLabelsOfPattern:
      for (int id : front.LabelsOfPattern(q.pattern)) {
        sum += static_cast<uint64_t>(id) + 1;
      }
      break;
    case QueryKind::kDatabaseGraphsWithPattern:
      for (int id : front.DatabaseGraphsWithPattern(q.pattern, q.label)) {
        sum += static_cast<uint64_t>(id) + 1;
      }
      break;
    case QueryKind::kDiscriminativePatterns:
      sum += front.DiscriminativePatterns(q.label).size();
      break;
    default:
      break;
  }
  return sum * 31 + static_cast<uint64_t>(q.kind);
}

template <typename Front>
uint64_t RunWorkload(const Front& front, const std::vector<ViewQuery>& queries,
                     std::vector<double>* latencies_ms) {
  uint64_t checksum = 0;
  for (const ViewQuery& q : queries) {
    Timer t;
    checksum = checksum * 131 + RunOne(front, q);
    if (latencies_ms) latencies_ms->push_back(t.ElapsedMs());
  }
  return checksum;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size() - 1)));
  return values[idx];
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Serving throughput: indexed ViewService vs legacy scan (1k patterns)");
  synthetic::SyntheticStore store = MakeStore(42);
  int total_patterns = 0;
  for (const auto& v : store.views) {
    total_patterns += static_cast<int>(v.patterns.size());
  }

  // Workload: every tier pattern queried against its own label group and
  // the global tier map, a db-wide query for every 5th pattern, and one
  // discriminative query per label.
  std::vector<ViewQuery> queries;
  for (const ExplanationView& v : store.views) {
    for (size_t i = 0; i < v.patterns.size(); ++i) {
      ViewQuery q;
      q.pattern = v.patterns[i];
      q.kind = QueryKind::kGraphsWithPattern;
      q.label = v.label;
      queries.push_back(q);
      q.kind = QueryKind::kLabelsOfPattern;
      queries.push_back(q);
      if (i % 5 == 0) {
        q.kind = QueryKind::kDatabaseGraphsWithPattern;
        q.label = -1;
        queries.push_back(q);
      }
    }
    ViewQuery q;
    q.kind = QueryKind::kDiscriminativePatterns;
    q.label = v.label;
    queries.push_back(q);
  }

  // Legacy scan front end (the oracle the index is pinned against).
  testing::ScanReference legacy(&store.db);
  for (const ExplanationView& v : store.views) legacy.AddView(v);
  Timer legacy_timer;
  const uint64_t legacy_sum = RunWorkload(legacy, queries, nullptr);
  const double legacy_sec = legacy_timer.ElapsedSec();

  // Indexed front end; the LRU cache is disabled for the headline numbers
  // so they measure the index, then re-enabled to report warm-cache qps.
  ViewServiceOptions cold_opts;
  cold_opts.cache_capacity = 0;
  cold_opts.index.num_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ViewService service(&store.db, cold_opts);
  Timer build_timer;
  if (!service.AdmitViews(store.views).ok()) {
    std::fprintf(stderr, "admission failed\n");
    return 1;
  }
  const double build_sec = build_timer.ElapsedSec();
  std::vector<double> latencies_ms;
  latencies_ms.reserve(queries.size());
  Timer indexed_timer;
  const uint64_t indexed_sum = RunWorkload(service, queries, &latencies_ms);
  const double indexed_sec = indexed_timer.ElapsedSec();

  if (legacy_sum != indexed_sum) {
    std::fprintf(stderr,
                 "FATAL: indexed answers diverge from the legacy scan "
                 "(checksum %llu vs %llu)\n",
                 static_cast<unsigned long long>(indexed_sum),
                 static_cast<unsigned long long>(legacy_sum));
    return 1;
  }

  // --- Fallback-heavy mix: patterns the index has never seen, so every
  // query is a containment scan on both paths (blind matcher vs filtered
  // matcher). Measured on a denser, label-scarce store — two node types,
  // ~30-node graphs with coin-flip extra edges — because that is the
  // regime where a containment scan actually hurts: tiny sparse queries
  // resolve in microseconds on either matcher, while dense label-scarce
  // ones send the blind matcher into deep backtracking that the candidate
  // filter prunes. Half the query patterns are induced subgraphs of real
  // explanation subgraphs (matches exist), half are random dense graphs
  // (mostly refuted); all are rejected until their code is unindexed.
  synthetic::SyntheticStoreOptions stress_opt;
  stress_opt.num_labels = 4;
  stress_opt.graphs_per_label = 6;
  stress_opt.patterns_per_label = 12;
  stress_opt.min_nodes = 26;
  stress_opt.max_nodes = 34;
  stress_opt.num_types = 2;
  stress_opt.pattern_min_nodes = 2;
  stress_opt.pattern_max_nodes = 5;
  stress_opt.subgraph_num = 3;
  stress_opt.subgraph_den = 4;
  stress_opt.extra_edge_prob = 0.4;
  synthetic::SyntheticStore stress =
      synthetic::MakeSyntheticStore(1042, stress_opt);
  testing::ScanReference stress_legacy(&stress.db);
  for (const ExplanationView& v : stress.views) stress_legacy.AddView(v);
  ViewService stress_service(&stress.db, cold_opts);
  if (!stress_service.AdmitViews(stress.views).ok()) {
    std::fprintf(stderr, "stress admission failed\n");
    return 1;
  }

  constexpr int kFallbackPatterns = 48;
  std::set<std::string> tier_codes;
  for (const ExplanationView& v : stress.views) {
    for (const Pattern& p : v.patterns) tier_codes.insert(p.canonical_code());
  }
  Rng fb_rng(777);
  std::vector<ViewQuery> fb_queries;
  {
    std::vector<Pattern> fb_patterns;
    while (static_cast<int>(fb_patterns.size()) < kFallbackPatterns) {
      const bool planted = (fb_patterns.size() % 2) == 0;
      auto p =
          planted
              ? Result<Pattern>(synthetic::RandomPatternFrom(
                    stress.views[fb_rng.NextUint(stress.views.size())]
                        .subgraphs[fb_rng.NextUint(
                            static_cast<uint64_t>(
                                stress_opt.graphs_per_label))]
                        .subgraph,
                    &fb_rng, 11, 14))
              : Pattern::Create(synthetic::RandomConnectedGraph(
                    &fb_rng, 12, 15, stress_opt.num_types, 0.5));
      if (!p.ok()) continue;
      if (tier_codes.count(p.value().canonical_code()) != 0) continue;
      fb_patterns.push_back(std::move(p).value());
    }
    for (const Pattern& p : fb_patterns) {
      for (const ExplanationView& v : stress.views) {
        ViewQuery q;
        q.kind = QueryKind::kGraphsWithPattern;
        q.label = v.label;
        q.pattern = p;
        fb_queries.push_back(q);
      }
    }
  }
  Timer legacy_fb_timer;
  const uint64_t legacy_fb_sum =
      RunWorkload(stress_legacy, fb_queries, nullptr);
  const double legacy_fb_sec = legacy_fb_timer.ElapsedSec();
  Timer indexed_fb_timer;
  const uint64_t indexed_fb_sum =
      RunWorkload(stress_service, fb_queries, nullptr);
  const double indexed_fb_sec = indexed_fb_timer.ElapsedSec();
  if (legacy_fb_sum != indexed_fb_sum) {
    std::fprintf(stderr,
                 "FATAL: filtered fallback answers diverge from the blind "
                 "scan (checksum %llu vs %llu)\n",
                 static_cast<unsigned long long>(indexed_fb_sum),
                 static_cast<unsigned long long>(legacy_fb_sum));
    return 1;
  }
  const ViewServiceStats fb_stats = stress_service.stats();

  ViewServiceOptions warm_opts;
  warm_opts.index.num_threads = cold_opts.index.num_threads;
  ViewService cached(&store.db, warm_opts);
  if (!cached.AdmitViews(store.views).ok()) return 1;
  (void)RunWorkload(cached, queries, nullptr);  // fill the LRU
  Timer warm_timer;
  (void)RunWorkload(cached, queries, nullptr);
  const double warm_sec = warm_timer.ElapsedSec();

  const double n = static_cast<double>(queries.size());
  const double speedup = legacy_sec / std::max(indexed_sec, 1e-9);
  const double qps = n / std::max(indexed_sec, 1e-9);
  const double warm_qps = n / std::max(warm_sec, 1e-9);
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p99 = Percentile(latencies_ms, 0.99);

  const double fallback_speedup =
      legacy_fb_sec / std::max(indexed_fb_sec, 1e-9);

  Table table({"Path", "Seconds", "QPS"});
  table.AddRow({"legacy scan", FmtDouble(legacy_sec, 3),
                FmtDouble(n / std::max(legacy_sec, 1e-9), 0)});
  table.AddRow({"indexed", FmtDouble(indexed_sec, 3), FmtDouble(qps, 0)});
  table.AddRow({"indexed+LRU", FmtDouble(warm_sec, 3),
                FmtDouble(warm_qps, 0)});
  table.AddRow({"fallback blind", FmtDouble(legacy_fb_sec, 3),
                FmtDouble(static_cast<double>(fb_queries.size()) /
                              std::max(legacy_fb_sec, 1e-9),
                          0)});
  table.AddRow({"fallback filtered", FmtDouble(indexed_fb_sec, 3),
                FmtDouble(static_cast<double>(fb_queries.size()) /
                              std::max(indexed_fb_sec, 1e-9),
                          0)});
  std::printf("%s", table.ToText().c_str());
  std::printf("\n%d patterns / %d labels / %d queries; index build %.3fs\n"
              "speedup vs scan %.1fx; p50 %.4fms p99 %.4fms\n"
              "fallback mix: %zu scans, filtered %.1fx faster than blind, "
              "%llu filter-only rejects\n",
              total_patterns, kNumLabels, static_cast<int>(queries.size()),
              build_sec, speedup, p50, p99, fb_queries.size(),
              fallback_speedup,
              static_cast<unsigned long long>(
                  fb_stats.index_filtered_rejects));

  bench::BenchReport report("serving");
  report.Add("hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()));
  report.Add("num_patterns", total_patterns);
  report.Add("num_queries", n);
  report.Add("legacy_scan_sec", legacy_sec);
  report.Add("indexed_sec", indexed_sec);
  report.Add("index_build_sec", build_sec);
  report.Add("scan_speedup", speedup);
  report.Add("qps", qps);
  report.Add("warm_cache_qps", warm_qps);
  report.Add("p50_ms", p50);
  report.Add("p99_ms", p99);
  report.Add("num_fallback_queries", static_cast<double>(fb_queries.size()));
  report.Add("legacy_fallback_sec", legacy_fb_sec);
  report.Add("indexed_fallback_sec", indexed_fb_sec);
  report.Add("fallback_speedup", fallback_speedup);
  report.Add("fallback_scans",
             static_cast<double>(fb_stats.index_fallback_scans));
  report.Add("fallback_filtered_rejects",
             static_cast<double>(fb_stats.index_filtered_rejects));
  const std::string out = bench::BenchReport::OutPath("BENCH_serving.json");
  Status st = report.WriteMerged(out);
  if (!st.ok()) {
    std::fprintf(stderr, "bench report: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
