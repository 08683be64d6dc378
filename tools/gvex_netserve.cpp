// gvex_netserve — the TCP serving front end: one shared ViewService behind
// an accept thread + N worker event loops (src/net/server.h), speaking the
// same line protocol as gvex_serve but to thousands of concurrent,
// pipelined connections.
//
// Usage:
//   gvex_netserve [--port 0] [--workers 2] [--max-sessions 1024]
//                 [--drain-timeout 5] [--idle-timeout 0] [--admit-quota 0]
//                 [--store dir] [--views views.txt] [--graphs graphs.txt]
//                 [--synthetic SEED] [--labels 4]
//                 [--threads N] [--cache N] [--wal-sync N]
//                 [--port-file path] [--stats 1]
//                 [--replicate-from HOST:PORT] [--replicate-poll 0.5]
//
// Replica mode: --replicate-from HOST:PORT (requires --store DIR for the
// standby's mirror directory) starts a WARM STANDBY instead of a primary —
// a ReplicaApplier pulls the primary's store through the `replicate` verbs
// into DIR and republishes every validated epoch on a READ-ONLY service.
// Queries serve normally the whole time; admit/save/compact answer
// "err read-only replica"; `stats` reports role + lag. Send `promote` to
// fail over: the applier stops shipping, the recovery verdict re-runs, and
// the SAME process flips writable (role primary, lag 0). --replicate-poll
// sets the sync period in seconds.
//
// Content comes from --store/--views/--graphs exactly as in gvex_serve, or
// from --synthetic SEED: a deterministic MakeSyntheticStore(seed) database
// + views (shape via --labels), so a gvex_loadgen started with the same
// seed can verify responses byte-for-byte without shared fixtures.
//
// --port 0 binds an ephemeral port; --port-file writes the bound port to a
// file once listening (how scripts and tests rendezvous; an unwritable
// path exits 1). SIGTERM/SIGINT trigger a graceful drain: stop accepting,
// finish in-flight requests, flush within --drain-timeout seconds, and
// (for a durable --store service) fold everything admitted into one final
// save. Both signals stay blocked in every thread; one thread takes them
// with sigwait and drains as ordinary code, not from a signal handler.
//
// Observability (docs/OBSERVABILITY.md):
//   --metrics-dump FILE            periodically write the Prometheus-style
//                                  export to FILE (tmp + rename, so readers
//                                  never see a torn file); a final dump is
//                                  written after drain — even when the drain
//                                  timed out and force-closed sessions.
//   --metrics-dump-interval SEC    dump period (default 5)
//   --health-file FILE             periodically write the health report
//                                  (same text as the `health` verb, same
//                                  tmp + rename discipline and cadence as
//                                  --metrics-dump)
//   --crash-dir DIR                where the crash post-mortem log goes
//                                  (crash-<pid>.log; default ".")
//   --trace-sample N               record pipeline spans for every Nth
//                                  request (the `trace on` verb can change
//                                  this at runtime; dump with `traces`)
//   --slow-ms MS                   log requests slower than MS to stderr
//                                  (rate-limited)
//
// On SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL an async-signal-safe handler
// writes crash-<pid>.log (build line, flight-recorder tail, last metrics
// snapshot) before re-raising the signal. --crash-test is a hidden test
// flag: it raises SIGSEGV shortly after the port file is written, so the
// smoke test can assert the post-mortem exists and parses.

#include <pthread.h>
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "net/repl_client.h"
#include "net/server.h"
#include "obs/crash.h"
#include "obs/dump.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/rate_limiter.h"
#include "obs/trace.h"
#include "serve/replica_applier.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "tool_args.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace gvex;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: gvex_netserve [--port 0] [--workers 2] [--max-sessions 1024]\n"
      "                     [--drain-timeout 5] [--idle-timeout 0]\n"
      "                     [--admit-quota 0] [--store dir] [--views file]\n"
      "                     [--graphs file] [--synthetic SEED] [--labels 4]\n"
      "                     [--threads N] [--cache N] [--wal-sync N]\n"
      "                     [--port-file path] [--stats 1]\n"
      "                     [--metrics-dump file] [--metrics-dump-interval 5]\n"
      "                     [--health-file file] [--crash-dir dir]\n"
      "                     [--trace-sample N] [--slow-ms MS]\n"
      "                     [--replicate-from HOST:PORT] [--replicate-poll "
      "0.5]\n"
      "       (one of --views / --store / --synthetic is required;\n"
      "        --replicate-from starts a warm standby mirroring the primary\n"
      "        into --store DIR — send `promote` to fail over)\n");
  return 1;
}

// One observability dump pass: metrics file, health file (each optional,
// replaced via AtomicWriteFile), and a refresh of the crash handler's
// preallocated metrics snapshot so a post-mortem always carries counters
// at most one dump interval stale. Best-effort — dump failures must never
// take the server down — but each one is logged (rate-limited: a small
// burst, then one per 5 s) so an operator can see why a file went stale.
void DumpObservability(const ViewService* service,
                       const std::string& metrics_path,
                       const std::string& health_path) {
  static obs::RateLimiter* warn_limiter = new obs::RateLimiter(5.0, 2);
  const auto write = [](const std::string& path, const std::string& body) {
    const Status st = AtomicWriteFile(path, body);
    if (!st.ok() && warn_limiter->Allow()) {
      GVEX_LOG(kWarning) << "observability dump failed: " << st.ToString();
    }
  };
  const std::string metrics = RenderMetricsText(*service);
  if (!metrics_path.empty()) write(metrics_path, metrics);
  if (!health_path.empty()) {
    write(health_path, obs::RenderHealthText(obs::Health().Evaluate()));
  }
  obs::UpdateCrashMetricsSnapshot(metrics);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return Usage();
  }
  if (!args.Has("views") && !args.Has("store") && !args.Has("synthetic")) {
    return Usage();
  }
  // Blocked before any thread exists, so every thread inherits the mask
  // and only the sigwait thread below ever takes these signals.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  if (const int err = pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr)) {
    return Fail(std::string("pthread_sigmask: ") + std::strerror(err));
  }

  GraphDatabase db;
  bool have_db = false;
  std::vector<ExplanationView> startup_views;
  if (args.Has("synthetic")) {
    synthetic::SyntheticStoreOptions shape;
    shape.num_labels = args.GetInt("labels", 4);
    synthetic::SyntheticStore store = synthetic::MakeSyntheticStore(
        static_cast<uint64_t>(args.GetInt("synthetic", 42)), shape);
    db = std::move(store.db);
    startup_views = std::move(store.views);
    have_db = true;
  }
  if (args.Has("graphs")) {
    auto graphs = LoadGraphs(args.Get("graphs", ""));
    if (!graphs.ok()) return Fail(graphs.status().ToString());
    for (auto& lg : graphs.value()) db.Add(std::move(lg.graph), lg.label);
    have_db = true;
  }
  if (args.Has("views")) {
    auto views = LoadViewsAnyFormat(args.Get("views", ""));
    if (!views.ok()) return Fail(views.status().ToString());
    for (auto& v : views.value()) startup_views.push_back(std::move(v));
  }

  ViewServiceOptions options;
  options.index.num_threads = args.GetInt("threads", 1);
  options.cache_capacity = static_cast<size_t>(args.GetInt("cache", 256));
  options.store.wal_sync_every = args.GetInt("wal-sync", 1);

  std::unique_ptr<ViewService> service;
  std::unique_ptr<ReplicaApplier> applier;
  if (args.Has("replicate-from")) {
    if (!args.Has("store")) {
      return Fail(
          "--replicate-from requires --store DIR (the standby's mirror "
          "directory)");
    }
    const std::string target = args.Get("replicate-from", "");
    const size_t colon = target.rfind(':');
    int primary_port = 0;
    if (colon == std::string::npos ||
        !ParseInt(target.substr(colon + 1), &primary_port)) {
      return Fail("--replicate-from expects HOST:PORT");
    }
    ReplicaApplierOptions ropts;
    ropts.poll_interval_sec = args.GetFloat("replicate-poll", 0.5f);
    auto opened = ReplicaApplier::Open(
        args.Get("store", ""), have_db ? &db : nullptr,
        std::make_unique<TcpReplicationEndpoint>(target.substr(0, colon),
                                                 primary_port),
        options, ropts);
    if (!opened.ok()) return Fail(opened.status().ToString());
    applier = std::move(opened).value();
    applier->Start();
  } else if (args.Has("store")) {
    auto opened = ViewService::Open(args.Get("store", ""),
                                    have_db ? &db : nullptr, options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    service = std::move(opened).value();
  } else {
    service = std::make_unique<ViewService>(have_db ? &db : nullptr, options);
  }
  ViewService* service_ptr =
      applier != nullptr ? applier->service() : service.get();
  if (!startup_views.empty()) {
    if (applier != nullptr) {
      // A standby's content comes from the primary; local admissions would
      // be refused anyway (read-only replica).
      std::fprintf(stderr,
                   "note: ignoring startup views in replica mode (content "
                   "streams from the primary)\n");
    } else {
      auto admitted = service_ptr->AdmitViews(std::move(startup_views));
      if (!admitted.ok()) return Fail(admitted.status().ToString());
    }
  }

  if (args.Has("trace-sample")) {
    obs::SetTraceSampleEvery(args.GetInt("trace-sample", 0));
  }
  if (args.Has("slow-ms")) {
    obs::SetSlowRequestThresholdMs(args.GetFloat("slow-ms", 0.0f));
  }

  TcpServerOptions topts;
  topts.port = args.GetInt("port", 0);
  topts.workers = args.GetInt("workers", 2);
  topts.max_sessions = args.GetInt("max-sessions", 1024);
  topts.drain_timeout_sec = args.GetFloat("drain-timeout", 5.0f);
  topts.idle_timeout_sec = args.GetFloat("idle-timeout", 0.0f);
  topts.session.admit_quota = args.GetInt("admit-quota", 0);
  if (applier != nullptr) {
    // Until promotion the PRIMARY owns durability; the standby's mirror
    // must stay byte-identical to what the applier validated, so no final
    // save on drain.
    topts.save_on_drain = false;
    ReplicaApplier* applier_ptr = applier.get();
    topts.promote_hook = [applier_ptr] { return applier_ptr->Promote(); };
    topts.lag_probe = [applier_ptr] { return applier_ptr->lag(); };
  }

  obs::CrashLoggerOptions crash;
  crash.dir = args.Get("crash-dir", ".");
  crash.build_info = "gvex_netserve (" __VERSION__ ")";
  obs::InstallCrashLogger(crash);

  TcpServer server;
  const Status started = server.Start(service_ptr, topts);
  if (!started.ok()) return Fail(started.ToString());

  const std::string metrics_path = args.Get("metrics-dump", "");
  const std::string health_path = args.Get("health-file", "");
  // Seed the crash snapshot (and the dump files) immediately so an early
  // crash still carries a metrics section.
  DumpObservability(service_ptr, metrics_path, health_path);
  std::unique_ptr<obs::PeriodicDumper> dumper;
  if (!metrics_path.empty() || !health_path.empty()) {
    dumper = std::make_unique<obs::PeriodicDumper>(
        args.GetFloat("metrics-dump-interval", 5.0f),
        [service_ptr, metrics_path, health_path] {
          DumpObservability(service_ptr, metrics_path, health_path);
        });
  }

  if (args.Has("port-file")) {
    const Status wrote = AtomicWriteFile(
        args.Get("port-file", ""), std::to_string(server.port()) + "\n");
    if (!wrote.ok()) return Fail("--port-file: " + wrote.ToString());
  }
  std::thread signal_thread([&server, stop_signals] {
    int sig = 0;
    if (sigwait(&stop_signals, &sig) == 0) server.Drain();
  });
  std::fprintf(stderr,
               "listening on port %d (%d workers, %d labels, epoch %llu%s%s)\n",
               server.port(), topts.workers,
               static_cast<int>(service_ptr->Labels().size()),
               static_cast<unsigned long long>(service_ptr->epoch()),
               service_ptr->durable() ? ", durable" : "",
               applier != nullptr ? ", replica" : "");

  std::thread crash_test_thread;
  if (args.GetInt("crash-test", 0) != 0) {
    // Hidden test hook: crash the process from a detached context shortly
    // after startup, exercising the real signal path end to end.
    crash_test_thread = std::thread([service_ptr, metrics_path, health_path] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      obs::RecordFlight(obs::FlightKind::kCrash,
                        "crash-test: raising SIGSEGV");
      DumpObservability(service_ptr, metrics_path, health_path);
      ::raise(SIGSEGV);
    });
    crash_test_thread.detach();
  }

  server.Wait();
  // The server may have stopped without a signal (the `shutdown` verb):
  // release the sigwait thread. Drain() is then a no-op. ESRCH, the only
  // possible error, means the thread already took a signal and returned.
  (void)pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();
  if (applier != nullptr) applier->Stop();
  if (dumper != nullptr) {
    dumper->Final();  // joins the dump thread, then writes the final export
    dumper.reset();
  }

  if (args.GetInt("stats", 0) != 0) {
    const TcpServerStats s = server.stats();
    std::fprintf(stderr,
                 "net: accepted %llu closed %llu rejected_full %llu "
                 "idle_closed %llu frames %llu admits_refused %llu "
                 "backpressure %llu killed %llu\n",
                 static_cast<unsigned long long>(s.accepted),
                 static_cast<unsigned long long>(s.closed),
                 static_cast<unsigned long long>(s.rejected_full),
                 static_cast<unsigned long long>(s.idle_closed),
                 static_cast<unsigned long long>(s.frames_executed),
                 static_cast<unsigned long long>(s.admits_refused),
                 static_cast<unsigned long long>(s.backpressure_engaged),
                 static_cast<unsigned long long>(s.killed_by_backpressure));
  }
  return 0;
}
