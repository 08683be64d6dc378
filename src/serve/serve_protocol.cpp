#include "serve/serve_protocol.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "explain/view_io.h"
#include "graph/graph_io.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace gvex {

namespace {

// Moves the cursor past the next line that trims to `terminator` and
// returns the text from the cursor's position through that line: a view
// into the request, never a copy. Fails when the lines run out first.
Result<std::string_view> CollectBlock(LineCursor* lines,
                                      std::string_view terminator) {
  const size_t begin = lines->offset();
  std::string_view line;
  while (lines->Next(&line)) {
    if (TrimView(line) == terminator) {
      return lines->text().substr(begin, lines->offset() - begin);
    }
  }
  return Status::InvalidArgument("unterminated '" + std::string(terminator) +
                                 "' block");
}

Result<Pattern> ParsePatternBlock(LineCursor* lines) {
  auto graph = ReadGraphBlock(lines, "unterminated 'end' block",
                              "expected exactly one pattern graph");
  if (!graph.ok()) return graph.status();
  return Pattern::Create(std::move(graph).value());
}

Result<int> ParseLabelArg(const std::vector<std::string_view>& head) {
  if (head.size() < 2) {
    return Status::InvalidArgument("'" + std::string(head[0]) +
                                   "' needs a label");
  }
  int label = 0;
  // Full consumption: "1x" is a typo, not label 1.
  if (ParseInt(head[1], &label)) return label;
  return Status::InvalidArgument("bad label '" + std::string(head[1]) + "'");
}

std::string FormatIds(const std::vector<int>& ids) {
  std::string out = StrFormat("ok %zu\n", ids.size());
  if (!ids.empty()) {
    out += "ids";
    for (int id : ids) out += StrFormat(" %d", id);
    out += "\n";
  }
  return out;
}

std::string FormatPatterns(const std::vector<Pattern>& patterns) {
  std::string out = StrFormat("ok %zu\n", patterns.size());
  for (const Pattern& p : patterns) {
    out += "pattern\n";
    out += SerializeGraph(p.graph());
  }
  return out;
}

/// The per-verb instruments ServeText records into. Looked up once per
/// process (function-local static) so the hot path never touches the
/// registry lock.
struct VerbInstruments {
  obs::Histogram* latency;
  obs::Counter* total;
  obs::Counter* errors;
};

const VerbInstruments& InstrumentsFor(ServeRequest::Kind kind) {
  static const std::array<VerbInstruments, ServeRequest::kNumKinds>* table =
      [] {
        auto* t = new std::array<VerbInstruments, ServeRequest::kNumKinds>();
        for (int i = 0; i < ServeRequest::kNumKinds; ++i) {
          const char* verb =
              ServeVerbName(static_cast<ServeRequest::Kind>(i));
          (*t)[i].latency = obs::Metrics().GetHistogram(
              "gvex_request_seconds",
              "Request execute latency (parse excluded), per verb",
              obs::Unit::kNanoseconds, "verb", verb);
          (*t)[i].total = obs::Metrics().GetCounter(
              "gvex_requests_total", "Requests executed, per verb", "verb",
              verb);
          (*t)[i].errors = obs::Metrics().GetCounter(
              "gvex_request_errors_total",
              "Requests answered with an err line, per verb (verb=\"parse\" "
              "counts requests that never parsed)",
              "verb", verb);
        }
        return t;
      }();
  return (*table)[static_cast<int>(kind)];
}

obs::Counter* ReplicaRefusedCounter() {
  static obs::Counter* counter = obs::Metrics().GetCounter(
      "gvex_replica_refused_total",
      "Mutating requests refused because this service is a read-only "
      "replica");
  return counter;
}

/// The exact refusal every mutating verb answers on a replica — tests and
/// clients match this string verbatim.
std::string RefuseReadOnly() {
  ReplicaRefusedCounter()->Add(1);
  return "err read-only replica\n";
}

/// Hard ceiling on one `replicate fetch` answer (before hex doubling).
constexpr uint64_t kMaxReplChunkBytes = 4ull << 20;

std::string HandleReplicateRequest(ViewService* service,
                                   const ServeRequest& req) {
  const std::string& dir = service->replication_dir();
  if (dir.empty()) {
    return "err service has no store directory to replicate\n";
  }
  // A fresh source per request: replication state lives on disk, not in
  // the session, so any number of replicas may stream concurrently.
  ReplicationSource source(dir, [service] { return service->epoch(); });
  switch (req.repl_op) {
    case ServeRequest::ReplOp::kState: {
      auto manifest = source.Manifest();
      if (!manifest.ok()) {
        return "err " + manifest.status().ToString() + "\n";
      }
      const ReplManifest& m = manifest.value();
      std::string out = StrFormat(
          "ok replstate epoch %llu wal_bytes %llu wal_has %d wal_first "
          "%llu files %zu\n",
          static_cast<unsigned long long>(m.epoch),
          static_cast<unsigned long long>(m.wal_bytes),
          m.wal_has_records ? 1 : 0,
          static_cast<unsigned long long>(m.wal_first_epoch),
          m.files.size());
      for (const ReplFileInfo& f : m.files) {
        out += StrFormat("file %s %llu\n", f.name.c_str(),
                         static_cast<unsigned long long>(f.bytes));
      }
      return out;
    }
    case ServeRequest::ReplOp::kFetch: {
      const uint64_t len = std::min(req.repl_len, kMaxReplChunkBytes);
      auto chunk = source.Fetch(req.repl_name, req.repl_offset, len);
      if (!chunk.ok()) return "err " + chunk.status().ToString() + "\n";
      if (chunk.value().empty()) return "ok replchunk 0\n";
      return StrFormat("ok replchunk %zu ", chunk.value().size()) +
             HexEncode(chunk.value()) + "\n";
    }
    case ServeRequest::ReplOp::kCrc: {
      auto crc = source.PrefixCrc(req.repl_name, req.repl_len);
      if (!crc.ok()) return "err " + crc.status().ToString() + "\n";
      return StrFormat("ok replcrc %08x\n", crc.value());
    }
  }
  return "err unreachable\n";
}

obs::Counter* ParseErrorCounter() {
  static obs::Counter* counter = obs::Metrics().GetCounter(
      "gvex_request_errors_total",
      "Requests answered with an err line, per verb (verb=\"parse\" counts "
      "requests that never parsed)",
      "verb", "parse");
  return counter;
}

}  // namespace

int ServeRequestShape(const std::vector<std::string_view>& head,
                      std::string_view* terminator) {
  *terminator = std::string_view();
  if (head.empty()) return 0;
  const std::string_view keyword = head[0];
  if (keyword == "graphs" || keyword == "dbgraphs" ||
      keyword == "labelsof" || keyword == "mcs") {
    *terminator = "end";
    return 1;
  }
  if (keyword == "graphsall") {
    // graphsall <label> <k>: k pattern blocks. A malformed count reads no
    // blocks; the parser reports the error.
    *terminator = "end";
    int k = 0;
    if (head.size() >= 3 && ParseInt(head[2], &k) && k > 0) return k;
    return 0;
  }
  if (keyword == "admit") {
    *terminator = "endview";
    return 1;
  }
  return 0;
}

Result<ServeRequest> ParseServeRequest(LineCursor* lines) {
  std::string_view line;
  do {
    if (!lines->Next(&line)) return Status::NotFound("end of input");
    line = TrimView(line);
  } while (line.empty());
  const std::vector<std::string_view> head = SplitWhitespaceView(line);
  ServeRequest req;
  const std::string_view kw = head[0];
  if (kw == "labels") {
    req.kind = ServeRequest::Kind::kLabels;
    return req;
  }
  if (kw == "stats") {
    req.kind = ServeRequest::Kind::kStats;
    return req;
  }
  if (kw == "metrics") {
    req.kind = ServeRequest::Kind::kMetrics;
    return req;
  }
  if (kw == "traces") {
    req.kind = ServeRequest::Kind::kTraces;
    return req;
  }
  if (kw == "health") {
    req.kind = ServeRequest::Kind::kHealth;
    return req;
  }
  if (kw == "events") {
    req.kind = ServeRequest::Kind::kEvents;
    return req;
  }
  if (kw == "trace") {
    if (head.size() < 2 || (head[1] != "on" && head[1] != "off")) {
      return Status::InvalidArgument("'trace' needs on or off");
    }
    req.kind = ServeRequest::Kind::kTrace;
    req.trace_on = head[1] == "on";
    if (!req.trace_on && head.size() > 2) {
      return Status::InvalidArgument("'trace off' takes no arguments");
    }
    if (req.trace_on) {
      if (head.size() > 3) {
        return Status::InvalidArgument(
            "'trace on' takes at most one sample period");
      }
      if (head.size() == 3) {
        int n = 0;
        if (!ParseInt(head[2], &n) || n < 1) {
          return Status::InvalidArgument("bad trace sample period '" +
                                         std::string(head[2]) + "'");
        }
        req.trace_sample = n;
      }
    }
    return req;
  }
  if (kw == "save") {
    req.kind = ServeRequest::Kind::kSave;
    if (head.size() > 2) {
      // "save --delta --full" must not silently win by first flag.
      return Status::InvalidArgument(
          "'save' takes at most one flag (--delta or --full)");
    }
    if (head.size() == 2) {
      if (head[1] == "--delta") {
        req.save_kind = SaveKind::kDelta;
      } else if (head[1] == "--full") {
        req.save_kind = SaveKind::kFull;
      } else {
        return Status::InvalidArgument("bad save flag '" +
                                       std::string(head[1]) +
                                       "' (use --delta or --full)");
      }
    }
    return req;
  }
  if (kw == "compact") {
    req.kind = ServeRequest::Kind::kCompact;
    return req;
  }
  if (kw == "replicate") {
    req.kind = ServeRequest::Kind::kReplicate;
    if (head.size() < 2) {
      return Status::InvalidArgument(
          "'replicate' needs an op: state, fetch, or crc");
    }
    if (head[1] == "state") {
      if (head.size() > 2) {
        return Status::InvalidArgument("'replicate state' takes no arguments");
      }
      req.repl_op = ServeRequest::ReplOp::kState;
      return req;
    }
    if (head[1] == "fetch") {
      if (head.size() != 5 || !ParseUint64(head[3], &req.repl_offset) ||
          !ParseUint64(head[4], &req.repl_len)) {
        return Status::InvalidArgument(
            "usage: replicate fetch <file> <offset> <maxlen>");
      }
      req.repl_op = ServeRequest::ReplOp::kFetch;
      req.repl_name = head[2];
      return req;
    }
    if (head[1] == "crc") {
      if (head.size() != 4 || !ParseUint64(head[3], &req.repl_len)) {
        return Status::InvalidArgument("usage: replicate crc <file> <bytes>");
      }
      req.repl_op = ServeRequest::ReplOp::kCrc;
      req.repl_name = head[2];
      return req;
    }
    return Status::InvalidArgument("unknown replicate op '" +
                                   std::string(head[1]) +
                                   "' (use state, fetch, or crc)");
  }
  if (kw == "promote") {
    req.kind = ServeRequest::Kind::kPromote;
    return req;
  }
  if (kw == "quit") {
    req.kind = ServeRequest::Kind::kQuit;
    return req;
  }
  if (kw == "patterns" || kw == "discriminative") {
    auto label = ParseLabelArg(head);
    if (!label.ok()) return label.status();
    req.kind = kw == "patterns" ? ServeRequest::Kind::kPatterns
                                : ServeRequest::Kind::kDiscriminative;
    req.label = label.value();
    return req;
  }
  if (kw == "graphs" || kw == "dbgraphs") {
    // Consume the payload block BEFORE reporting a bad label, so a
    // malformed request never desynchronizes the stream (the block's graph
    // lines must not be re-parsed as requests).
    auto label = ParseLabelArg(head);
    auto pattern = ParsePatternBlock(lines);
    if (!label.ok()) return label.status();
    if (!pattern.ok()) return pattern.status();
    req.kind = kw == "graphs" ? ServeRequest::Kind::kGraphs
                              : ServeRequest::Kind::kDbGraphs;
    req.label = label.value();
    req.pattern = std::move(pattern).value();
    return req;
  }
  if (kw == "graphsall") {
    // Head: graphsall <label> <k>, then k pattern blocks. Consume every
    // block before reporting argument errors (stream stays in sync).
    auto label = ParseLabelArg(head);
    int count = -1;
    if (head.size() >= 3) {
      int k = -1;
      if (ParseInt(head[2], &k) && k >= 0) count = k;
    }
    Status first_error = Status::OK();
    for (int i = 0; i < std::max(0, count); ++i) {
      auto pattern = ParsePatternBlock(lines);
      if (!pattern.ok()) {
        // An unterminated block consumed the rest of the input; stop.
        if (first_error.ok()) first_error = pattern.status();
        break;
      }
      req.patterns.push_back(std::move(pattern).value());
    }
    if (!label.ok()) return label.status();
    if (count < 0) {
      return Status::InvalidArgument(
          "'graphsall' needs a pattern count: graphsall <label> <k>");
    }
    if (!first_error.ok()) return first_error;
    req.kind = ServeRequest::Kind::kGraphsAll;
    req.label = label.value();
    return req;
  }
  if (kw == "mcs") {
    auto label = ParseLabelArg(head);
    auto graph = ReadGraphBlock(lines, "unterminated 'end' block",
                                "expected exactly one query graph");
    if (!label.ok()) return label.status();
    if (!graph.ok()) return graph.status();
    if (graph.value().num_nodes() == 0) {
      return Status::InvalidArgument("mcs query graph must be non-empty");
    }
    req.kind = ServeRequest::Kind::kMcs;
    req.label = label.value();
    req.query_graph = std::move(graph).value();
    return req;
  }
  if (kw == "labelsof") {
    auto pattern = ParsePatternBlock(lines);
    if (!pattern.ok()) return pattern.status();
    req.kind = ServeRequest::Kind::kLabelsOf;
    req.pattern = std::move(pattern).value();
    return req;
  }
  if (kw == "admit") {
    auto block = CollectBlock(lines, "endview");
    if (!block.ok()) return block.status();
    auto views = ParseViews(block.value());
    if (!views.ok()) return views.status();
    if (views.value().size() != 1) {
      return Status::InvalidArgument("expected exactly one view to admit");
    }
    req.kind = ServeRequest::Kind::kAdmit;
    req.view = std::move(views.value()[0]);
    return req;
  }
  return Status::InvalidArgument("unknown request '" + std::string(kw) +
                                 "'");
}

Result<ServeRequest> ParseServeRequest(const std::vector<std::string>& lines,
                                       size_t* pos) {
  if (*pos >= lines.size()) return Status::NotFound("end of input");
  std::string text;
  for (size_t i = *pos; i < lines.size(); ++i) {
    if (i > *pos) text += '\n';
    text += lines[i];
  }
  LineCursor cursor(text);
  auto req = ParseServeRequest(&cursor);
  *pos += cursor.lines_read();
  return req;
}

std::string HandleServeRequest(const ServeSession& session,
                               const ServeRequest& req) {
  ViewService* service = session.service;
  // Replica refusal, checked PER REQUEST (not at connect time): Promote()
  // flips read_only on the live service, so the same session that was
  // refused a moment ago starts admitting the moment promotion lands.
  if (service->read_only() && (req.kind == ServeRequest::Kind::kAdmit ||
                               req.kind == ServeRequest::Kind::kSave ||
                               req.kind == ServeRequest::Kind::kCompact)) {
    return RefuseReadOnly();
  }
  switch (req.kind) {
    case ServeRequest::Kind::kLabels:
      return FormatIds(service->Labels());
    case ServeRequest::Kind::kPatterns:
      return FormatPatterns(service->PatternsForLabel(req.label));
    case ServeRequest::Kind::kGraphs:
      return FormatIds(service->GraphsWithPattern(req.label, req.pattern));
    case ServeRequest::Kind::kLabelsOf:
      return FormatIds(service->LabelsOfPattern(req.pattern));
    case ServeRequest::Kind::kDbGraphs:
      return FormatIds(
          service->DatabaseGraphsWithPattern(req.pattern, req.label));
    case ServeRequest::Kind::kDiscriminative:
      return FormatPatterns(service->DiscriminativePatterns(req.label));
    case ServeRequest::Kind::kGraphsAll:
      return FormatIds(
          service->GraphsWithAllPatterns(req.label, req.patterns));
    case ServeRequest::Kind::kMcs: {
      const McsAnswer a =
          service->MaxCommonSubgraph(req.label, req.query_graph);
      return StrFormat("ok mcs graph %d size %d exact %d\n", a.graph_index,
                       a.size, a.exact ? 1 : 0);
    }
    case ServeRequest::Kind::kAdmit: {
      const int label = req.view.label;
      auto epoch = service->AdmitView(req.view);
      if (!epoch.ok()) return "err " + epoch.status().ToString() + "\n";
      // The epoch THIS admission published — under concurrent sessions
      // service->epoch() may already belong to someone else's admission.
      return StrFormat("ok admitted %d epoch %llu\n", label,
                       static_cast<unsigned long long>(epoch.value()));
    }
    case ServeRequest::Kind::kStats: {
      const ViewServiceStats s = service->stats();
      // `role` rides at the END of the line (prefix-matching clients keep
      // working); a replica host's lag follows it.
      std::string out = StrFormat(
          "ok stats epoch %llu labels %d codes %d admitted %llu "
          "batches %llu cache_hits %llu cache_misses %llu hit_rate %.4f "
          "uptime_sec %.1f started_unix %lld role %s",
          static_cast<unsigned long long>(s.epoch), s.num_labels,
          s.num_codes, static_cast<unsigned long long>(s.admitted_views),
          static_cast<unsigned long long>(s.admitted_batches),
          static_cast<unsigned long long>(s.cache_hits),
          static_cast<unsigned long long>(s.cache_misses), s.hit_rate(),
          obs::ProcessUptimeSeconds(),
          static_cast<long long>(obs::ProcessStartUnixSeconds()),
          service->read_only() ? "replica" : "primary");
      if (session.lag_probe) {
        const ReplicationLag lag = session.lag_probe();
        out += StrFormat(" lag_epochs %llu lag_bytes %llu",
                         static_cast<unsigned long long>(lag.epochs),
                         static_cast<unsigned long long>(lag.bytes));
      }
      return out + "\n";
    }
    case ServeRequest::Kind::kMetrics: {
      const std::string body = RenderMetricsText(*service);
      return StrFormat("ok metrics %zu\n",
                       static_cast<size_t>(
                           std::count(body.begin(), body.end(), '\n'))) +
             body;
    }
    case ServeRequest::Kind::kTrace: {
      if (!req.trace_on) {
        obs::SetTraceSampleEvery(0);
        return "ok trace off\n";
      }
      int every = req.trace_sample;
      if (every <= 0) every = std::max(1, obs::TraceSampleEvery());
      obs::SetTraceSampleEvery(every);
      return StrFormat("ok trace on %d\n", every);
    }
    case ServeRequest::Kind::kTraces: {
      const std::vector<obs::TraceSpans> dump = obs::GlobalTraceRing().Dump();
      std::string out = StrFormat("ok traces %zu\n", dump.size());
      for (const obs::TraceSpans& t : dump) {
        out += StrFormat(
            "trace %s frame_us %.1f queue_us %.1f execute_us %.1f "
            "flush_us %.1f\n",
            t.verb.c_str(), t.frame_us, t.queue_us, t.execute_us, t.flush_us);
      }
      return out;
    }
    case ServeRequest::Kind::kHealth: {
      const obs::HealthReport report = obs::Health().Evaluate();
      return "ok " + obs::RenderHealthText(report);
    }
    case ServeRequest::Kind::kEvents: {
      const std::vector<obs::FlightEvent> dump = obs::Flight().Dump();
      std::string out = StrFormat("ok events %zu\n", dump.size());
      for (const obs::FlightEvent& ev : dump) {
        out += StrFormat("event %llu %lld %s %s\n",
                         static_cast<unsigned long long>(ev.seq),
                         static_cast<long long>(ev.unix_ms),
                         obs::FlightKindName(ev.kind), ev.text.c_str());
      }
      return out;
    }
    case ServeRequest::Kind::kSave: {
      auto saved = service->Save(req.save_kind);
      if (!saved.ok()) return "err " + saved.status().ToString() + "\n";
      const SaveInfo& info = saved.value();
      return StrFormat("ok saved epoch %llu %s\n",
                       static_cast<unsigned long long>(info.epoch),
                       !info.wrote ? "noop" : info.delta ? "delta" : "full");
    }
    case ServeRequest::Kind::kCompact: {
      auto epoch = service->Compact();
      if (!epoch.ok()) return "err " + epoch.status().ToString() + "\n";
      return StrFormat("ok compacted epoch %llu\n",
                       static_cast<unsigned long long>(epoch.value()));
    }
    case ServeRequest::Kind::kReplicate:
      return HandleReplicateRequest(service, req);
    case ServeRequest::Kind::kPromote: {
      if (session.promote) {
        auto epoch = session.promote();
        if (!epoch.ok()) return "err " + epoch.status().ToString() + "\n";
        return StrFormat("ok promoted epoch %llu\n",
                         static_cast<unsigned long long>(epoch.value()));
      }
      if (!service->read_only()) {
        return "err not a replica (already primary)\n";
      }
      // Direct service promotion: only valid when nothing else owns the
      // store LOCK. Hosts running a replica applier install a promote hook
      // instead (the applier must release the LOCK first).
      Status st = service->Promote();
      if (!st.ok()) return "err " + st.ToString() + "\n";
      return StrFormat("ok promoted epoch %llu\n",
                       static_cast<unsigned long long>(service->epoch()));
    }
    case ServeRequest::Kind::kQuit:
      return "ok bye\n";
  }
  return "err unreachable\n";
}

const char* ServeVerbName(ServeRequest::Kind kind) {
  switch (kind) {
    case ServeRequest::Kind::kLabels:
      return "labels";
    case ServeRequest::Kind::kPatterns:
      return "patterns";
    case ServeRequest::Kind::kGraphs:
      return "graphs";
    case ServeRequest::Kind::kLabelsOf:
      return "labelsof";
    case ServeRequest::Kind::kDbGraphs:
      return "dbgraphs";
    case ServeRequest::Kind::kDiscriminative:
      return "discriminative";
    case ServeRequest::Kind::kGraphsAll:
      return "graphsall";
    case ServeRequest::Kind::kMcs:
      return "mcs";
    case ServeRequest::Kind::kAdmit:
      return "admit";
    case ServeRequest::Kind::kStats:
      return "stats";
    case ServeRequest::Kind::kMetrics:
      return "metrics";
    case ServeRequest::Kind::kTrace:
      return "trace";
    case ServeRequest::Kind::kTraces:
      return "traces";
    case ServeRequest::Kind::kHealth:
      return "health";
    case ServeRequest::Kind::kEvents:
      return "events";
    case ServeRequest::Kind::kSave:
      return "save";
    case ServeRequest::Kind::kCompact:
      return "compact";
    case ServeRequest::Kind::kReplicate:
      return "replicate";
    case ServeRequest::Kind::kPromote:
      return "promote";
    case ServeRequest::Kind::kQuit:
      return "quit";
  }
  return "unknown";
}

std::string RenderMetricsText(const ViewService& service) {
  // Refresh the health gauges first so every export carries a current
  // `gvex_health_status` (scrapers get health + metrics in one pass; the
  // evaluation itself is a handful of atomic reads / try-locks).
  obs::Health().Evaluate();
  std::string out = obs::Metrics().RenderPrometheus();
  const auto emit = [&out](const char* name, const char* type,
                           const char* help, double v) {
    out += StrFormat("# HELP %s %s\n# TYPE %s %s\n%s %.10g\n", name, help,
                     name, type, name, v);
  };
  // The service section reads ONE consistent stats() snapshot at scrape
  // time instead of double-counting into the registry on the hot path.
  const ViewServiceStats s = service.stats();
  emit("gvex_service_epoch", "gauge", "Published snapshot epoch",
       static_cast<double>(s.epoch));
  emit("gvex_service_labels", "gauge", "Labels in the current snapshot",
       s.num_labels);
  emit("gvex_service_codes", "gauge",
       "Indexed canonical codes in the current snapshot", s.num_codes);
  emit("gvex_service_admitted_views_total", "counter",
       "Views admitted since this service was constructed",
       static_cast<double>(s.admitted_views));
  emit("gvex_service_admitted_batches_total", "counter",
       "Admission batches folded into published snapshots",
       static_cast<double>(s.admitted_batches));
  emit("gvex_service_cache_hits_total", "counter", "Result cache hits",
       static_cast<double>(s.cache_hits));
  emit("gvex_service_cache_misses_total", "counter", "Result cache misses",
       static_cast<double>(s.cache_misses));
  emit("gvex_service_index_fallback_scans_total", "counter",
       "Index lookups that fell back to a full scan",
       static_cast<double>(s.index_fallback_scans));
  emit("gvex_service_index_inconsistent_postings_total", "counter",
       "Index postings found inconsistent and re-verified",
       static_cast<double>(s.index_inconsistent_postings));
  emit("gvex_service_index_filtered_rejects_total", "counter",
       "Index candidates rejected by the verification filter",
       static_cast<double>(s.index_filtered_rejects));
  emit("gvex_service_compactions_total", "counter",
       "Compactions completed successfully",
       static_cast<double>(s.compactions));
  emit("gvex_service_compaction_failures_total", "counter",
       "Compactions that failed (see the rate-limited warning log)",
       static_cast<double>(s.compaction_failures));
  emit("gvex_service_replica", "gauge",
       "1 when this service is a read-only replica, 0 once primary",
       service.read_only() ? 1.0 : 0.0);
  emit("gvex_process_uptime_seconds", "gauge",
       "Seconds since process start (anchors the process-lifetime counters)",
       obs::ProcessUptimeSeconds());
  emit("gvex_process_start_time_seconds", "gauge",
       "Process start as unix epoch seconds",
       static_cast<double>(obs::ProcessStartUnixSeconds()));
  return out;
}

std::string ServeText(const ServeSession& session, std::string_view text,
                      bool* quit) {
  if (quit) *quit = false;
  std::string out;
  LineCursor lines(text);
  while (true) {
    auto req = ParseServeRequest(&lines);
    if (!req.ok()) {
      if (req.status().code() == StatusCode::kNotFound) break;
      out += "err " + req.status().message() + "\n";
      ParseErrorCounter()->Add(1);
      continue;
    }
    const ServeRequest::Kind kind = req.value().kind;
    const auto start = std::chrono::steady_clock::now();
    const std::string response = HandleServeRequest(session, req.value());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const VerbInstruments& vi = InstrumentsFor(kind);
    vi.latency->ObserveSeconds(seconds);
    vi.total->Add(1);
    if (StartsWith(response, "err")) vi.errors->Add(1);
    obs::MaybeLogSlowRequest(ServeVerbName(kind), seconds * 1e3);
    out += response;
    if (kind == ServeRequest::Kind::kQuit) {
      if (quit) *quit = true;
      break;
    }
  }
  return out;
}

std::string ServeText(ViewService* service, std::string_view text,
                      bool* quit) {
  ServeSession session;
  session.service = service;
  return ServeText(session, text, quit);
}

}  // namespace gvex
