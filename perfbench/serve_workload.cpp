// The serve_mixed workload's two in-process halves.
//
// PrepareServe writes what gvex_netserve is started on: the database as a
// graphs file and a durable store (a full snapshot plus a WAL tail of
// identity re-admits), all from the seed.
//
// RunServeClient is the one client process: two read connections and one
// admit connection in a closed loop, pipeline depth 1, for the whole run.
// Every read is checked byte for byte against a mirror ViewService built
// from the same graphs file and the seed's views; every admit must answer
// `ok admitted <label>` and every save `ok saved`. In traced mode it then
// times the serving layers in process: parse, indexed and fallback lookups
// and mcs on a cache-less mirror, a whole-store index build, WAL append and
// fsync, and a store open.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "net/loadgen.h"
#include "report.h"
#include "serve/pattern_index.h"
#include "serve/serve_protocol.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "spans.h"
#include "store/wal.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using gvex::ExplanationView;
using gvex::GraphDatabase;
using gvex::StrFormat;
using gvex::ViewService;

constexpr int kLabels = 8;
constexpr int kPatternsPerLabel = 48;
// Four times the result cache (8 shards x 256 entries, the server default).
constexpr int kDistinctReads = 4 * 8 * 256;
constexpr int kSaveEvery = 16;
// Enough warm-up reads for the serving worker's CPU time to stand out.
constexpr int kWarmupReads = 1024;
// How often the client's main thread runs the host-speed reference while
// the connections are timed.
constexpr int kReferenceEveryMs = 500;

// The bench_net_throughput store shape: 8 labels x 48 tier patterns, 8
// database graphs of 8-12 nodes per label.
gvex::synthetic::SyntheticStore MakeStore(uint64_t seed) {
  gvex::synthetic::SyntheticStoreOptions opt;
  opt.num_labels = kLabels;
  opt.graphs_per_label = 8;
  opt.patterns_per_label = kPatternsPerLabel;
  opt.min_nodes = 8;
  opt.max_nodes = 12;
  return gvex::synthetic::MakeSyntheticStore(seed, opt);
}

enum ReadClass { kIndexed, kFallback, kMcs };
const char* const kClassSpan[] = {"serve.indexed", "serve.fallback",
                                  "serve.mcs"};

struct Request {
  std::string text;
  std::string expect;         ///< exact response ("" = prefix check)
  std::string expect_prefix;  ///< for admit and save
  int lines = 1;
  ReadClass cls = kIndexed;
};

int CountLines(const std::string& s) {
  int n = 0;
  for (char c : s) n += c == '\n';
  return n;
}

// Reads: graphs, graphsall, dbgraphs and mcs in equal shares; half built
// from tier patterns (indexed postings), half from random connected pieces
// of database graphs (no posting: the filtered-matcher fallback).
std::vector<Request> BuildReads(const gvex::synthetic::SyntheticStore& store,
                                const GraphDatabase& db, ViewService* mirror,
                                uint64_t seed) {
  gvex::Rng rng(seed * 2654435761ULL + 99);
  // A tier pattern of `label`, or of any label when `label` is -1 (every
  // tier pattern has a posting, whichever label the query names).
  auto tier = [&](int label) -> const gvex::Pattern& {
    if (label < 0) label = static_cast<int>(rng.NextUint(kLabels));
    const auto& ps = store.views[static_cast<size_t>(label)].patterns;
    return ps[rng.NextUint(ps.size())];
  };
  auto random_pattern = [&]() {
    const gvex::Graph& g =
        db.graph(static_cast<int>(rng.NextUint(static_cast<uint64_t>(db.size()))));
    return gvex::synthetic::RandomPatternFrom(g, &rng, 2, 5);
  };
  // Slot i has verb i % 4 and draws tier patterns when (i / 4) is even;
  // a slot redraws until its request text is new.
  std::vector<Request> reads;
  std::set<std::string> seen;
  for (int i = 0; i < kDistinctReads; ++i) {
    const bool indexed = (i / 4) % 2 == 0;
    Request r;
    do {
      const int label = static_cast<int>(rng.NextUint(kLabels));
      r.cls = indexed ? kIndexed : kFallback;
      switch (i % 4) {
        case 0:
          r.text = StrFormat("graphs %d\n", label) +
                   gvex::SerializeGraph(indexed ? tier(-1).graph()
                                                : random_pattern().graph());
          break;
        case 1: {
          const gvex::Pattern a = indexed ? tier(label) : random_pattern();
          const gvex::Pattern b = indexed ? tier(label) : random_pattern();
          r.text = StrFormat("graphsall %d 2\n", label) +
                   gvex::SerializeGraph(a.graph()) +
                   gvex::SerializeGraph(b.graph());
          break;
        }
        case 2: {
          const int scope = rng.NextBool(0.25) ? -1 : label;
          r.text = StrFormat("dbgraphs %d\n", scope) +
                   gvex::SerializeGraph(indexed ? tier(-1).graph()
                                                : random_pattern().graph());
          break;
        }
        default:
          r.cls = kMcs;
          r.text = StrFormat("mcs %d\n", label) +
                   gvex::SerializeGraph(indexed ? tier(-1).graph()
                                                : random_pattern().graph());
          break;
      }
    } while (!seen.insert(r.text).second);
    r.expect = gvex::ServeText(mirror, r.text);
    r.lines = CountLines(r.expect);
    reads.push_back(std::move(r));
  }
  return reads;
}

// One blocking client connection; a request's response is complete after
// `lines` lines, or after one line when it is an `err` reply.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{30, 0};  // a stuck server fails the run instead of hanging it
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends `text` and reads its response; false when the connection broke.
  bool Exchange(const std::string& text, int lines, std::string* response) {
    size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    response->clear();
    for (int got = 0; got < lines; ++got) {
      if (!ReadLine(response)) return false;
      if (got == 0 && gvex::StartsWith(*response, "err")) break;
    }
    return true;
  }

 private:
  bool ReadLine(std::string* out) {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        out->append(buf_, pos_, nl + 1 - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

bool Matches(const Request& r, const std::string& response) {
  return r.expect.empty() ? gvex::StartsWith(response, r.expect_prefix)
                          : response == r.expect;
}

// Per-connection tally, merged into the Report after the threads join.
struct ConnResult {
  std::vector<double> read_ms;
  std::vector<double> admit_ms;
  std::vector<double> save_ms;
  int64_t cpu_ns = 0;  ///< this client thread's CPU time while timed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t aborted = 0;
};

// The run's phases as the connection threads see them: each finishes its
// untimed warm-up, counts itself in `warmed` and waits for `go`; the timed
// part ends at `stop`.
struct Phases {
  std::atomic<int> warmed{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  void WarmedAndWait() {
    warmed.fetch_add(1);
    while (!go.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

// CPU time of every thread of process `pid`, by thread id, from
// /proc/<pid>/task/<tid>/schedstat (nanoseconds on the CPU; time the host
// steals from the VM is not counted).
std::map<int, int64_t> ProcessThreadCpuNs(int pid) {
  std::map<int, int64_t> out;
  std::error_code ec;
  const fs::path tasks = fs::path("/proc") / std::to_string(pid) / "task";
  for (const auto& entry : fs::directory_iterator(tasks, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    int64_t ns = 0;
    if (in >> ns) out[std::stoi(entry.path().filename().string())] = ns;
  }
  return out;
}

// The thread whose CPU time grew most from `before` to `after` (-1 if none).
int BusiestThread(const std::map<int, int64_t>& before,
                  const std::map<int, int64_t>& after) {
  int tid = -1;
  int64_t most = 0;
  for (const auto& [id, ns] : after) {
    const auto it = before.find(id);
    const int64_t grew = ns - (it == before.end() ? 0 : it->second);
    if (grew > most) {
      most = grew;
      tid = id;
    }
  }
  return tid;
}

// A read connection: the first kWarmupReads requests warm the server and
// are checked but not timed; then requests drawn at random until `stop`.
void ReadLoop(Connection* conn, const std::vector<Request>& reads,
              uint64_t seed, Phases* phases, int corrupt, Tracer* tracer,
              ConnResult* out) {
  gvex::Rng rng(seed);
  std::string response;
  bool ok = conn != nullptr;
  auto one = [&](int64_t i, bool timed) {
    const Request& r = reads[rng.NextUint(reads.size())];
    const int64_t start = NowNs();
    {
      Scope span(tracer, "net.read", i);
      ok = conn->Exchange(r.text, r.lines, &response);
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    ++out->attempted;
    const bool corrupt_this = corrupt > 0 && i == kWarmupReads + corrupt - 1;
    if (ok && (!Matches(r, response) || corrupt_this)) ++out->failed;
    if (ok && timed) out->read_ms.push_back(ms);
  };
  int64_t i = 0;
  for (; ok && i < kWarmupReads; ++i) one(i, false);
  phases->WarmedAndWait();
  const int64_t cpu_start = ThreadCpuNs();
  for (; ok && !phases->stop.load(); ++i) one(i, true);
  out->cpu_ns = ThreadCpuNs() - cpu_start;
  if (!ok) {
    if (conn == nullptr) ++out->attempted;
    ++out->aborted;
    ++out->failed;
  }
}

// The admit connection: re-admits each label's identity view in turn and
// sends a save after every kSaveEvery admits. The first admit is warm-up.
void AdmitLoop(Connection* conn, const std::vector<Request>& admits,
               Phases* phases, Tracer* tracer, ConnResult* out) {
  Request save;
  save.text = "save\n";
  save.expect_prefix = "ok saved";
  std::string response;
  bool ok = conn != nullptr;
  auto one = [&](int64_t i, bool timed) {
    const bool is_save = i > 0 && i % (kSaveEvery + 1) == kSaveEvery;
    const Request& r =
        is_save ? save : admits[static_cast<size_t>(i % kLabels)];
    const int64_t start = NowNs();
    {
      Scope span(tracer, is_save ? "store.save" : "serve.admit", i);
      ok = conn->Exchange(r.text, 1, &response);
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    ++out->attempted;
    if (ok && !Matches(r, response)) ++out->failed;
    if (ok && timed) (is_save ? out->save_ms : out->admit_ms).push_back(ms);
  };
  int64_t i = 0;
  if (ok) one(i++, false);
  phases->WarmedAndWait();
  for (; ok && !phases->stop.load(); ++i) one(i, true);
  if (!ok) {
    if (conn == nullptr) ++out->attempted;
    ++out->aborted;
    ++out->failed;
  }
}

// Sends one request on a fresh connection and returns its first line.
std::string OneShot(int port, const std::string& text) {
  Connection conn;
  std::string response;
  if (!conn.Connect(port) || !conn.Exchange(text, 1, &response)) return "";
  return response;
}

// The integer after `key ` in a space-separated line (-1 when absent).
double Field(const std::string& line, const std::string& key) {
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    if (word == key && in >> word) return std::stod(word);
  }
  return -1;
}

// A sample's value from Prometheus-style exposition text (-1 when absent).
double Sample(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1;
}

// In-process layer timings (traced mode), each call under its own span.
void TimeLayers(int port, const gvex::synthetic::SyntheticStore& store,
                const GraphDatabase& db, const std::vector<Request>& reads,
                const RunOptions& opt, Tracer* tracer, Report* report) {
  {
    Connection conn;
    std::string response;
    if (conn.Connect(port)) {
      for (int i = 0; i < 2000; ++i) {
        Scope span(tracer, "net.roundtrip", i);
        report->Check(conn.Exchange("labels\n", 2, &response) &&
                      gvex::StartsWith(response, "ok "));
      }
    }
  }
  std::vector<gvex::ServeRequest> parsed;
  for (size_t i = 0; i < reads.size(); ++i) {
    const std::vector<std::string> lines = gvex::Split(reads[i].text, '\n');
    size_t pos = 0;
    Scope span(tracer, "serve.parse", static_cast<int64_t>(i));
    auto req = gvex::ParseServeRequest(lines, &pos);
    if (req.ok()) parsed.push_back(std::move(req).value());
  }
  report->Check(parsed.size() == reads.size());

  gvex::ViewServiceOptions no_cache;
  no_cache.cache_capacity = 0;
  ViewService mirror(&db, no_cache);
  (void)mirror.AdmitViews(store.views);
  for (size_t i = 0; i < parsed.size(); ++i) {
    const gvex::ServeRequest& q = parsed[i];
    Scope span(tracer, kClassSpan[reads[i].cls], static_cast<int64_t>(i));
    switch (q.kind) {
      case gvex::ServeRequest::Kind::kGraphs:
        (void)mirror.GraphsWithPattern(q.label, q.pattern);
        break;
      case gvex::ServeRequest::Kind::kGraphsAll:
        (void)mirror.GraphsWithAllPatterns(q.label, q.patterns);
        break;
      case gvex::ServeRequest::Kind::kDbGraphs:
        (void)mirror.DatabaseGraphsWithPattern(q.pattern, q.label);
        break;
      default:
        (void)mirror.MaxCommonSubgraph(q.label, q.query_graph);
        break;
    }
  }

  std::map<int, ExplanationView> views;
  for (const ExplanationView& v : store.views) views[v.label] = v;
  for (int rep = 0; rep < 5; ++rep) {
    Scope span(tracer, "serve.index_build", rep);
    (void)gvex::PatternIndex::Build(views, &db);
  }

  const fs::path probe = fs::path(opt.dir) / "probe";
  fs::remove_all(probe);
  fs::create_directories(probe);
  {
    gvex::WalWriter wal;
    if (wal.Open((probe / "wal.log").string(), 0).ok()) {
      wal.set_sync_every(1 << 30);  // Append writes; Sync alone fsyncs
      for (int i = 0; i < 64; ++i) {
        gvex::WalRecord record;
        record.epoch = static_cast<uint64_t>(i + 1);
        record.views.push_back(
            gvex::synthetic::VersionedView(store, i % kLabels, 0));
        {
          Scope span(tracer, "store.wal_append", i);
          report->Check(wal.Append(record).ok());
        }
        Scope span(tracer, "store.wal_sync", i);
        report->Check(wal.Sync().ok());
      }
      wal.Close();
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    const fs::path copy = probe / StrFormat("store-%d", rep);
    fs::copy(fs::path(opt.dir) / "pristine", copy,
             fs::copy_options::recursive);
    Scope span(tracer, "store.open", rep);
    auto opened = ViewService::Open(copy.string(), &db);
    report->Check(opened.ok() &&
                  opened.value()->Labels().size() == kLabels);
  }
  fs::remove_all(probe);
}

}  // namespace

int PrepareServe(const RunOptions& opt) {
  const gvex::synthetic::SyntheticStore store = MakeStore(opt.seed);
  std::vector<gvex::LabeledGraph> graphs;
  for (int i = 0; i < store.db.size(); ++i) {
    graphs.push_back({store.db.graph(i), store.db.true_label(i)});
  }
  const fs::path dir(opt.dir);
  gvex::Status st = gvex::SaveGraphs((dir / "graphs.txt").string(), graphs);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  fs::remove_all(dir / "pristine");
  auto opened = ViewService::Open((dir / "pristine").string(), &store.db);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  ViewService& service = *opened.value();
  // A full snapshot of every view, then a WAL tail that recovery replays.
  bool ok = service.AdmitViews(store.views).ok() && service.Save(gvex::SaveKind::kFull).ok();
  for (int label = 0; ok && label < 2; ++label) {
    ok = service.AdmitView(gvex::synthetic::VersionedView(store, label, 0))
             .ok();
  }
  if (!ok) {
    std::fprintf(stderr, "cannot build the store\n");
    return 1;
  }
  return 0;
}

int RunServeClient(const RunOptions& opt) {
  // The oracle: the database as the server loads it, and the seed's views.
  const gvex::synthetic::SyntheticStore store = MakeStore(opt.seed);
  auto loaded = gvex::LoadGraphs((fs::path(opt.dir) / "graphs.txt").string());
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  GraphDatabase db;
  for (auto& lg : loaded.value()) db.Add(std::move(lg.graph), lg.label);
  ViewService mirror(&db);
  (void)mirror.AdmitViews(store.views);
  const std::vector<Request> reads = BuildReads(store, db, &mirror, opt.seed);
  std::vector<Request> admits;
  for (int label = 0; label < kLabels; ++label) {
    Request r;
    r.text = "admit\n" + gvex::SerializeView(
                             gvex::synthetic::VersionedView(store, label, 0));
    r.expect_prefix = StrFormat("ok admitted %d epoch ", label);
    admits.push_back(std::move(r));
  }

  Report report;
  int classes[3] = {0, 0, 0};
  for (const Request& r : reads) ++classes[r.cls];
  report.notes.push_back(StrFormat(
      "serve mix: %zu distinct reads (%d indexed, %d fallback, %d mcs), "
      "2 read + 1 admit connections, save every %d admits",
      reads.size(), classes[kIndexed], classes[kFallback], classes[kMcs],
      kSaveEvery));

  Tracer read_tracers[2] = {Tracer(opt.trace), Tracer(opt.trace)};
  Tracer admit_tracer(opt.trace);
  ConnResult results[3];
  Phases phases;
  // Connect in a fixed order before any thread starts: the server hands
  // connections to its workers round-robin, so the order fixes which read
  // connection shares a worker with the admit connection.
  Connection conns[3];
  Connection* ready[3];
  for (int i = 0; i < 3; ++i) {
    ready[i] = conns[i].Connect(opt.port) ? &conns[i] : nullptr;
  }
  // The connections warm up one at a time; the server thread whose CPU
  // time grows most during a connection's warm-up is the worker serving it.
  std::vector<std::thread> threads;
  int worker[3];
  std::map<int, int64_t> cpu = ProcessThreadCpuNs(opt.server_pid);
  for (int c = 0; c < 3; ++c) {
    if (c < 2) {
      threads.emplace_back(ReadLoop, ready[c], std::cref(reads),
                           opt.seed * 31 + 1 + static_cast<uint64_t>(c),
                           &phases, c == 0 ? opt.corrupt : 0,
                           &read_tracers[c], &results[c]);
    } else {
      threads.emplace_back(AdmitLoop, ready[c], std::cref(admits), &phases,
                           &admit_tracer, &results[c]);
    }
    while (phases.warmed.load() <= c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::map<int, int64_t> now = ProcessThreadCpuNs(opt.server_pid);
    worker[c] = BusiestThread(cpu, now);
    cpu = std::move(now);
  }
  // The read connection that shares the admit connection's worker waits
  // behind admits; the other one has its worker to itself.
  const int shared = worker[0] == worker[2] ? 0 : 1;
  const int own = 1 - shared;
  const bool layout_ok = worker[2] >= 0 && worker[shared] == worker[2] &&
                         worker[own] >= 0 && worker[own] != worker[2];
  report.notes.push_back(StrFormat(
      "server worker threads: read connections %d and %d, admit %d",
      worker[0], worker[1], worker[2]));

  // The timed part. Meanwhile this thread runs the host-speed reference
  // once every kReferenceEveryMs.
  std::vector<double>& reference_ms = report.samples["reference_ms"];
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt.seconds * 1e9);
  phases.go.store(true);
  for (int64_t now = start; now < deadline; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<int64_t>(kReferenceEveryMs, (deadline - now) / 1000000 + 1)));
    reference_ms.push_back(ReferenceMs());
  }
  phases.stop.store(true);
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  for (std::thread& t : threads) t.join();
  const std::map<int, int64_t> cpu_end = ProcessThreadCpuNs(opt.server_pid);

  uint64_t aborted = 0;
  for (const ConnResult& r : results) aborted += r.aborted;
  if (!layout_ok && aborted == 0) {
    std::fprintf(stderr,
                 "no read connection shares the admit connection's server "
                 "worker, or none has one to itself (workers %d %d %d)\n",
                 worker[0], worker[1], worker[2]);
    return 1;
  }
  for (const ConnResult& r : results) {
    report.attempted += r.attempted;
    report.failed += r.failed;
    auto append = [&](const char* name, const std::vector<double>& v) {
      auto& dst = report.samples[name];
      dst.insert(dst.end(), v.begin(), v.end());
    };
    append("read_ms", r.read_ms);
    append("admit_ms", r.admit_ms);
    append("save_ms", r.save_ms);
  }
  report.samples["shared_read_ms"] = results[shared].read_ms;
  report.notes.push_back(StrFormat(
      "timed reads: %zu beside the admits, %zu on their own worker; "
      "admits %zu, saves %zu",
      results[shared].read_ms.size(), results[own].read_ms.size(),
      results[2].admit_ms.size(), results[2].save_ms.size()));
  report.values["elapsed_s"] = elapsed;
  // Host CPU steal stretches wall time but not CPU time: the read path's
  // rate is the own-worker connection's reads per CPU second, its client
  // thread plus its server worker.
  const auto worker_start = cpu.find(worker[own]);
  const auto worker_end = cpu_end.find(worker[own]);
  const int64_t worker_ns =
      worker_start != cpu.end() && worker_end != cpu_end.end()
          ? worker_end->second - worker_start->second
          : 0;
  report.values["own_reads"] =
      static_cast<double>(results[own].read_ms.size());
  report.values["own_cpu_s"] =
      static_cast<double>(worker_ns + results[own].cpu_ns) / 1e9;
  report.values["aborted_connections"] = static_cast<double>(aborted);
  report.values["serve.reads_sent"] =
      static_cast<double>(results[0].attempted + results[1].attempted);
  report.values["serve.admits_sent"] =
      static_cast<double>(results[2].admit_ms.size() + 1);

  // A quiet pass of fallback-class reads after the mix: the server counts
  // fallback scans per index epoch, and every admit starts a new one, so
  // the scrape below sees the scans of this pass (cache misses among them).
  int quiet_reads = 0;
  {
    Connection conn;
    std::string response;
    report.Check(conn.Connect(opt.port));
    for (const Request& r : reads) {
      if (r.cls != kFallback) continue;
      if (quiet_reads == 256) break;
      ++quiet_reads;
      report.Check(conn.Exchange(r.text, r.lines, &response) &&
                   Matches(r, response));
    }
  }
  report.values["serve.quiet_fallback_reads"] = quiet_reads;

  // Counters after the run: cache hits from `stats`, the rest from one
  // `metrics` scrape.
  const std::string stats = OneShot(opt.port, "stats\n");
  const double hits = Field(stats, "cache_hits");
  const double misses = Field(stats, "cache_misses");
  report.Check(hits >= 0 && misses >= 0);
  report.values["serve.cache_lookups"] = hits + misses;
  report.values["serve.cache_hit_frac"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  auto metrics = gvex::FetchMetrics("127.0.0.1", opt.port);
  report.Check(metrics.ok());
  if (metrics.ok()) {
    report.values["serve.admit_batches"] =
        Sample(metrics.value(), "gvex_service_admitted_batches_total");
    report.values["serve.fallback_scans"] =
        Sample(metrics.value(), "gvex_service_index_fallback_scans_total");
    report.values["store.wal_fsyncs"] =
        Sample(metrics.value(), "gvex_wal_fsync_seconds_count");
  }

  Tracer layer_tracer(opt.trace);
  if (opt.trace) {
    TimeLayers(opt.port, store, db, reads, opt, &layer_tracer, &report);
    report.values["trace.span_ns"] = SpanCostNs();
    if (!WriteSpans(opt.spans, {&read_tracers[0], &read_tracers[1],
                                &admit_tracer, &layer_tracer})) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans.c_str());
      return 1;
    }
  }
  if (!report.Write(opt.out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
