// gvex_serve — serve explanation views over the line-oriented protocol of
// serve/serve_protocol.h. Loads a view file (and optionally the graph
// database it explains), builds a ViewService, then answers requests from
// stdin (or a request file) on stdout until EOF or `quit`.
//
// Usage:
//   gvex_serve [--views views.txt] [--graphs graphs.txt] [--store dir]
//              [--threads 4] [--cache 256] [--wal-sync 1]
//              [--compact-bytes N] [--requests requests.txt] [--stats 1]
//
// With --store the service is DURABLE (src/store/): it warm-starts from
// the directory's newest snapshot + WAL, admissions append to the WAL, and
// the protocol verbs `save` / `compact` write epoch-tagged snapshots.
// --views may be combined with --store to admit a view file into the store
// on startup. View files may be text (view_io.h) or binary (the "GVXS"
// magic is sniffed).
//
// The service front end is concurrent (snapshot-swapped with live `admit`
// support); this tool drives it from a single protocol session, which is
// the shape the bench and tests script against.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "obs/crash.h"
#include "serve/serve_protocol.h"
#include "serve/view_service.h"
#include "tool_args.h"
#include "util/string_util.h"

using namespace gvex;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gvex_serve [--views views.txt] [--graphs graphs.txt]\n"
               "                  [--store dir] [--threads N] [--cache N]\n"
               "                  [--wal-sync N] [--compact-bytes N]\n"
               "                  [--requests file] [--stats 1]\n"
               "                  [--crash-dir dir]\n"
               "       (at least one of --views / --store is required)\n");
  return 1;
}

// Request/response loop: reads ONE request (keyword line + payload block if
// any) at a time and flushes its response immediately, so interactive and
// co-process clients never deadlock waiting for EOF.
void ServeStream(ViewService* service, std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    std::string chunk = line + "\n";
    std::string_view terminator;
    const int blocks =
        ServeRequestShape(SplitWhitespaceView(TrimView(line)), &terminator);
    for (int b = 0; b < blocks; ++b) {
      std::string payload;
      while (std::getline(in, payload)) {
        chunk += payload + "\n";
        if (TrimView(payload) == terminator) break;
      }
    }
    bool quit = false;
    std::fputs(ServeText(service, chunk, &quit).c_str(), stdout);
    std::fflush(stdout);
    if (quit) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return Usage();
  }
  if (!args.Has("views") && !args.Has("store")) return Usage();

  obs::CrashLoggerOptions crash;
  crash.dir = args.Get("crash-dir", ".");
  crash.build_info = "gvex_serve (" __VERSION__ ")";
  obs::InstallCrashLogger(crash);

  GraphDatabase db;
  bool have_db = false;
  if (args.Has("graphs")) {
    auto graphs = LoadGraphs(args.Get("graphs", ""));
    if (!graphs.ok()) return Fail(graphs.status().ToString());
    for (auto& lg : graphs.value()) db.Add(std::move(lg.graph), lg.label);
    have_db = true;
  }

  ViewServiceOptions options;
  options.index.num_threads = args.GetInt("threads", 1);
  options.cache_capacity = static_cast<size_t>(args.GetInt("cache", 256));
  options.store.wal_sync_every = args.GetInt("wal-sync", 1);
  options.store.compact_wal_bytes =
      static_cast<uint64_t>(args.GetInt("compact-bytes", 0));

  const GraphDatabase* db_ptr = have_db ? &db : nullptr;
  std::unique_ptr<ViewService> service;
  if (args.Has("store")) {
    auto opened = ViewService::Open(args.Get("store", ""), db_ptr, options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    service = std::move(opened).value();
  } else {
    service = std::make_unique<ViewService>(db_ptr, options);
  }

  if (args.Has("views")) {
    auto views = LoadViewsAnyFormat(args.Get("views", "views.txt"));
    if (!views.ok()) return Fail(views.status().ToString());
    if (!views.value().empty()) {
      auto admitted = service->AdmitViews(std::move(views).value());
      if (!admitted.ok()) return Fail(admitted.status().ToString());
    }
  }
  std::fprintf(stderr, "serving %d label(s), %llu epoch(s)%s%s; reading %s\n",
               static_cast<int>(service->Labels().size()),
               static_cast<unsigned long long>(service->epoch()),
               service->durable() ? " from store " : "",
               service->durable() ? service->store_dir().c_str() : "",
               args.Has("requests") ? args.Get("requests", "").c_str()
                                    : "stdin");

  if (args.Has("requests")) {
    std::ifstream f(args.Get("requests", ""));
    if (!f.good()) return Fail("cannot open " + args.Get("requests", ""));
    ServeStream(service.get(), f);
  } else {
    ServeStream(service.get(), std::cin);
  }

  if (args.GetInt("stats", 0) != 0) {
    const ViewServiceStats s = service->stats();
    std::fprintf(stderr,
                 "stats: epoch %llu labels %d codes %d cache_hits %llu "
                 "cache_misses %llu hit_rate %.4f\n",
                 static_cast<unsigned long long>(s.epoch), s.num_labels,
                 s.num_codes, static_cast<unsigned long long>(s.cache_hits),
                 static_cast<unsigned long long>(s.cache_misses),
                 s.hit_rate());
  }
  return 0;
}
