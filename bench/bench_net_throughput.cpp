// TCP front-end benchmark: concurrent-connection throughput against a
// single pipelined connection, over a real in-process TcpServer.
//
// The headline claim is hardware-independent: many concurrent admitting
// connections must beat ONE pipelined connection by >=3x on the SAME
// machine, because concurrent admits from different worker loops coalesce
// in the ViewService's single-writer admission queue (one epoch / WAL
// append / index rebuild per combined batch), while a single connection's
// admits execute strictly one-publish-per-admit. This is the same physics
// the store bench pins as `batched_admit_speedup` — measured here through
// the full socket path (framing, parsing, response flushing included).
// Admits ship version-0 views (identical content), so the store's size —
// and therefore the per-admit rebuild cost — stays constant across both
// phases; only the coalescing differs.
//
// A third phase drives the acceptance-bar mixed workload: 128 concurrent
// connections, reads verified byte-for-byte against a local mirror,
// admits/stats by prefix — the bench FAILS on any divergence.
//
// The run merge-writes a "net" section into BENCH_net.json (override with
// GVEX_BENCH_OUT); tools/check_bench.py gates `concurrent_speedup`
// against an absolute >=3x floor plus the usual `_sec` regression checks.

#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/workload.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"

using namespace gvex;

namespace {

constexpr int kNumLabels = 8;
constexpr int kPatternsPerLabel = 48;  // 384 tier patterns: rebuild-heavy
constexpr int kWorkers = 16;           // coalescing ceiling = worker count
constexpr int kSingleAdmits = 64;
constexpr int kConcurrentConns = 128;
constexpr int kAdmitsPerConn = 1;  // 128 x 1 concurrent admits
constexpr int kMixedConns = 128;
constexpr int kMixedRequestsPerConn = 6;

synthetic::SyntheticStore MakeStore(uint64_t seed) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kNumLabels;
  opt.graphs_per_label = 8;
  opt.patterns_per_label = kPatternsPerLabel;
  opt.min_nodes = 8;
  opt.max_nodes = 12;
  return synthetic::MakeSyntheticStore(seed, opt);
}

/// One serving phase: fresh service (same store shape every time), fresh
/// in-process server on an ephemeral port, one loadgen run against it.
struct PhaseResult {
  LoadgenReport report;
  uint64_t epochs = 0;            ///< epochs published during the phase
  uint64_t admitted_batches = 0;  ///< AdmitView calls folded into them
  bool ok = false;
};

PhaseResult RunPhase(const synthetic::SyntheticStore& store,
                     const std::vector<LoadgenRequest>& mix,
                     int connections, int requests_per_conn,
                     int pipeline_depth) {
  PhaseResult out;
  ViewService service(&store.db, ViewServiceOptions());
  {
    auto views = store.views;
    if (!service.AdmitViews(std::move(views)).ok()) return out;
  }
  const uint64_t epoch_before = service.epoch();
  const uint64_t batches_before = service.stats().admitted_batches;

  TcpServerOptions sopts;
  sopts.workers = kWorkers;
  sopts.max_sessions = connections + 8;
  TcpServer server;
  if (!server.Start(&service, sopts).ok()) {
    return out;
  }

  LoadgenOptions lopts;
  lopts.port = server.port();
  lopts.connections = connections;
  lopts.requests_per_conn = requests_per_conn;
  lopts.pipeline_depth = pipeline_depth;
  auto run = RunLoadgen(lopts, mix);
  server.Drain();
  server.Wait();
  if (!run.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", run.status().ToString().c_str());
    return out;
  }
  out.report = std::move(run).value();
  out.epochs = service.epoch() - epoch_before;
  out.admitted_batches = service.stats().admitted_batches - batches_before;
  out.ok = out.report.aborted_connections == 0;
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Net throughput: concurrent connections vs one pipelined connection");
  synthetic::SyntheticStore store = MakeStore(42);
  int total_patterns = 0;
  for (const auto& v : store.views) {
    total_patterns += static_cast<int>(v.patterns.size());
  }

  // Admit-only mix: every request re-admits a version-0 (identity) view,
  // so the rebuild each publish pays is the same in both phases.
  SyntheticWorkloadOptions admit_only;
  admit_only.read_weight = 0;
  admit_only.admit_weight = 1.0;
  const std::vector<LoadgenRequest> admit_mix =
      BuildSyntheticMix(store, admit_only);

  // --- Phase 1: one pipelined connection. Every admit publishes alone.
  const PhaseResult single =
      RunPhase(store, admit_mix, /*connections=*/1,
               /*requests_per_conn=*/kSingleAdmits, /*pipeline_depth=*/8);
  if (!single.ok || single.report.divergences != 0) {
    std::fprintf(stderr, "single-connection phase failed\n");
    return 1;
  }

  // --- Phase 2: many concurrent connections. Admits arriving on
  // different workers coalesce into combined publishes.
  const PhaseResult concurrent =
      RunPhase(store, admit_mix, /*connections=*/kConcurrentConns,
               /*requests_per_conn=*/kAdmitsPerConn, /*pipeline_depth=*/1);
  if (!concurrent.ok || concurrent.report.divergences != 0) {
    std::fprintf(stderr, "concurrent phase failed\n");
    return 1;
  }

  // --- Phase 3: the acceptance-bar mixed workload at 128 connections.
  SyntheticWorkloadOptions mixed;
  mixed.read_weight = 0.7;
  mixed.admit_weight = 0.2;
  mixed.stats_weight = 0.1;
  const PhaseResult mix_phase =
      RunPhase(store, BuildSyntheticMix(store, mixed),
               /*connections=*/kMixedConns,
               /*requests_per_conn=*/kMixedRequestsPerConn,
               /*pipeline_depth=*/4);
  if (!mix_phase.ok) {
    std::fprintf(stderr, "mixed phase failed\n");
    return 1;
  }
  if (mix_phase.report.divergences != 0 || mix_phase.report.errors != 0) {
    std::fprintf(stderr,
                 "FATAL: mixed workload diverged (%llu divergences, "
                 "%llu errors over %llu requests)\n",
                 static_cast<unsigned long long>(
                     mix_phase.report.divergences),
                 static_cast<unsigned long long>(mix_phase.report.errors),
                 static_cast<unsigned long long>(mix_phase.report.requests));
    return 1;
  }

  const double concurrent_speedup =
      concurrent.report.qps /
      (single.report.qps > 0 ? single.report.qps : 1e-9);

  Table table({"Phase", "Conns", "Requests", "Seconds", "QPS", "Epochs"});
  table.AddRow({"single pipelined", "1",
                FmtDouble(static_cast<double>(single.report.requests), 0),
                FmtDouble(single.report.elapsed_sec, 3),
                FmtDouble(single.report.qps, 0),
                FmtDouble(static_cast<double>(single.epochs), 0)});
  table.AddRow({"concurrent admit", FmtDouble(kConcurrentConns, 0),
                FmtDouble(static_cast<double>(concurrent.report.requests), 0),
                FmtDouble(concurrent.report.elapsed_sec, 3),
                FmtDouble(concurrent.report.qps, 0),
                FmtDouble(static_cast<double>(concurrent.epochs), 0)});
  table.AddRow({"mixed 70/20/10", FmtDouble(kMixedConns, 0),
                FmtDouble(static_cast<double>(mix_phase.report.requests), 0),
                FmtDouble(mix_phase.report.elapsed_sec, 3),
                FmtDouble(mix_phase.report.qps, 0),
                FmtDouble(static_cast<double>(mix_phase.epochs), 0)});
  std::printf("%s", table.ToText().c_str());
  std::printf(
      "\n%d patterns / %d labels / %d server workers\n"
      "concurrent vs single-connection admit throughput: %.2fx\n"
      "coalescing: %llu admits -> %llu epochs concurrent "
      "(vs %llu -> %llu single)\n"
      "mixed workload: %llu requests, p50 %.3fms p99 %.3fms, "
      "0 divergences\n",
      total_patterns, kNumLabels, kWorkers, concurrent_speedup,
      static_cast<unsigned long long>(concurrent.admitted_batches),
      static_cast<unsigned long long>(concurrent.epochs),
      static_cast<unsigned long long>(single.admitted_batches),
      static_cast<unsigned long long>(single.epochs),
      static_cast<unsigned long long>(mix_phase.report.requests),
      mix_phase.report.p50_ms, mix_phase.report.p99_ms);

  bench::BenchReport report("net");
  report.Add("hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()));
  report.Add("num_patterns", total_patterns);
  report.Add("server_workers", kWorkers);
  report.Add("single_conn_admits",
             static_cast<double>(single.report.requests));
  report.Add("single_conn_admit_sec", single.report.elapsed_sec);
  report.Add("single_conn_admit_qps", single.report.qps);
  report.Add("single_conn_epochs", static_cast<double>(single.epochs));
  report.Add("concurrent_conns", kConcurrentConns);
  report.Add("concurrent_admits",
             static_cast<double>(concurrent.report.requests));
  report.Add("concurrent_admit_sec", concurrent.report.elapsed_sec);
  report.Add("concurrent_admit_qps", concurrent.report.qps);
  report.Add("concurrent_epochs", static_cast<double>(concurrent.epochs));
  report.Add("concurrent_speedup", concurrent_speedup);
  report.Add("mixed_conns", kMixedConns);
  report.Add("mixed_requests",
             static_cast<double>(mix_phase.report.requests));
  report.Add("mixed_sec", mix_phase.report.elapsed_sec);
  report.Add("mixed_qps", mix_phase.report.qps);
  report.Add("mixed_p50_ms", mix_phase.report.p50_ms);
  report.Add("mixed_p99_ms", mix_phase.report.p99_ms);
  report.Add("mixed_divergences",
             static_cast<double>(mix_phase.report.divergences));
  const std::string out = bench::BenchReport::OutPath("BENCH_net.json");
  Status st = report.WriteMerged(out);
  if (!st.ok()) {
    std::fprintf(stderr, "bench report: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
