// Line-oriented request/response protocol for the view-serving subsystem —
// what gvex_serve speaks on stdin/stdout. Payloads reuse the existing text
// formats: patterns are graph blocks (graph_io.h, terminated by "end") and
// admitted views are view blocks (view_io.h, terminated by "endview").
//
// Requests (one keyword line, optionally followed by a payload block):
//   labels                         -> ok <n> / ids <l...>
//   patterns <label>               -> ok <n> / n x ("pattern" + graph block)
//   graphs <label>                 -> ok <n> / ids <graph indices>
//     <graph block>                   (graphs of the label group whose
//                                      explanation subgraph contains P)
//   labelsof                       -> ok <n> / ids <labels>
//     <graph block>
//   dbgraphs <label|-1>            -> ok <n> / ids <database graph indices>
//     <graph block>
//   discriminative <label>         -> ok <n> / n x ("pattern" + graph block)
//   graphsall <label> <k>          -> ok <n> / ids <graph indices>
//     k x <graph block>               (graphs of the label group whose
//                                      explanation subgraph contains ALL k
//                                      patterns — one batched bitset pass;
//                                      k = 0 answers every graph of the
//                                      label)
//   mcs <label>                    -> ok mcs graph <g> size <s> exact <0|1>
//     <graph block>                   (approximate query: the label's
//                                      explanation subgraph sharing the
//                                      largest common induced subgraph with
//                                      the query graph, budgeted McSplit
//                                      search; the query graph may be
//                                      disconnected; exact 0 = the step
//                                      budget bound somewhere, size is a
//                                      lower bound; graph -1 = label
//                                      unknown or no common subgraph)
//   admit                          -> ok admitted <label> epoch <e>
//     <view block>                    (live admission: published as a new
//                                      snapshot without blocking readers)
//   stats                          -> ok stats epoch <e> labels <n> codes <c>
//                                       admitted <v> batches <b>
//                                       cache_hits <h> cache_misses <m>
//                                       hit_rate <r> uptime_sec <u>
//                                       started_unix <t>
//                                      (r = hits / (hits + misses), 0 when
//                                       the cache has seen no lookups;
//                                       epoch/labels/codes/admitted/batches
//                                       come from ONE published snapshot —
//                                       never a torn mid-batch view;
//                                       admitted/batches count since this
//                                       service was constructed/Opened,
//                                       like the cache counters — they are
//                                       not persisted across restarts;
//                                       uptime_sec/started_unix anchor the
//                                       process-lifetime counters: u =
//                                       seconds since process start, t =
//                                       that start as a unix epoch)
//   metrics                        -> ok metrics <n> / n lines of
//                                      Prometheus-style exposition text
//                                      (per-verb latency histograms, WAL +
//                                      admission + net counters; see
//                                      docs/OBSERVABILITY.md for names)
//   trace on [N] | trace off       -> ok trace on <N> / ok trace off
//                                      (samples every Nth request into the
//                                       global trace ring; on without N
//                                       keeps the configured period, or 1)
//   traces                         -> ok traces <n> / n x ("trace <verb>
//                                      frame_us <f> queue_us <q>
//                                      execute_us <e> flush_us <w>"),
//                                      oldest first
//   health                         -> ok health <ok|degraded|fail>
//                                      checks <n> / n x ("check <name>
//                                      <ok|degraded|fail> <reason>")
//                                      (one Evaluate() pass over the
//                                       process health registry: WAL
//                                       appendable, store LOCK held, worker
//                                       heartbeats fresh, admit leader not
//                                       wedged, compaction backlog bounded)
//   events                         -> ok events <n> / n x ("event <seq>
//                                      <unix_ms> <kind> <text>"), the
//                                      flight-recorder ring oldest first
//                                      (kinds: epoch save compact drain
//                                       frame_error backpressure health
//                                       watchdog server crash)
//   save [--delta|--full]          -> ok saved epoch <e> <full|delta|noop>
//                                      (no flag: the size policy picks;
//                                       noop = the epoch was already
//                                       persisted, nothing written)
//   compact                        -> ok compacted epoch <e>
//                                      (save/compact answer "err ..." on a
//                                       service without a store directory)
//   replicate state                -> ok replstate epoch <e> wal_bytes <b>
//                                      wal_has <0|1> wal_first <f> files <n>
//                                      / n x ("file <name> <bytes>")
//                                      (the primary's store manifest: WAL
//                                       size + generation identity plus
//                                       every snapshot/delta file — what a
//                                       replica applier reconciles against)
//   replicate fetch <name> <offset> <maxlen>
//                                  -> ok replchunk <n> <hex>
//                                      (up to maxlen bytes of the named
//                                       store file from `offset`, hex on
//                                       one line; n = 0 past EOF, and the
//                                       server clamps maxlen to 4 MiB)
//   replicate crc <name> <bytes>   -> ok replcrc <crc32-hex>
//                                      (CRC32 of the file's first `bytes`
//                                       bytes — the divergence probe: equal
//                                       prefixes CRC equal, a mismatch over
//                                       a shared WAL generation fail-stops
//                                       the replica)
//                                      (all three replicate ops are READ
//                                       ONLY, so replicas can chain)
//   promote                        -> ok promoted epoch <e>
//                                      (flips a read-only replica writable
//                                       after the recovery verdict; via the
//                                       session's applier hook when one is
//                                       attached — "err ..." on a primary)
//   quit                           -> ok bye
//
// Malformed input answers "err <message>" and parsing resumes at the next
// keyword line. Blank lines between requests are ignored.
//
// Replica mode: on a read-only replica service every mutating verb —
// admit, save, compact — answers exactly "err read-only replica" (and
// bumps gvex_replica_refused_total); queries and observability verbs work
// normally, `stats` reports the role (and replication lag when the session
// has a lag probe), and `promote` flips the SAME live sessions writable —
// the refusal is checked per request, not captured at connect time.
//
// Thread-safety: the parser is pure and the handler only calls the
// (concurrency-safe) ViewService API, so any number of protocol sessions
// may share one service — and one ServeSession, which is never modified.

#ifndef GVEX_SERVE_SERVE_PROTOCOL_H_
#define GVEX_SERVE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "explain/explanation.h"
#include "pattern/pattern.h"
#include "serve/replica_applier.h"
#include "serve/view_service.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gvex {

/// One parsed protocol request.
struct ServeRequest {
  enum class Kind {
    kLabels,
    kPatterns,
    kGraphs,
    kLabelsOf,
    kDbGraphs,
    kDiscriminative,
    kGraphsAll,
    kMcs,
    kAdmit,
    kStats,
    kMetrics,
    kTrace,
    kTraces,
    kHealth,
    kEvents,
    kSave,
    kCompact,
    kReplicate,
    kPromote,
    kQuit,
  };
  /// One past the largest Kind value (for per-verb instrument tables).
  static constexpr int kNumKinds = static_cast<int>(Kind::kQuit) + 1;
  Kind kind = Kind::kLabels;
  int label = -1;
  Pattern pattern;       ///< For kGraphs / kLabelsOf / kDbGraphs.
  /// For kGraphsAll: the conjunction of patterns to intersect.
  std::vector<Pattern> patterns;
  /// For kMcs: the query graph (may be disconnected — it is not a Pattern).
  Graph query_graph;
  ExplanationView view;  ///< For kAdmit.
  /// For kSave: plain `save` is kAuto (the service's size policy picks
  /// full vs delta), `save --delta` forces an incremental snapshot,
  /// `save --full` a whole-epoch one.
  SaveKind save_kind = SaveKind::kAuto;
  /// For kTrace: enable sampling, and the period (0 = keep the configured
  /// period, enabling with 1 if none was set).
  bool trace_on = false;
  int trace_sample = 0;
  /// For kReplicate: which replication op.
  enum class ReplOp { kState, kFetch, kCrc };
  ReplOp repl_op = ReplOp::kState;
  std::string repl_name;     ///< fetch/crc: the store file name
  uint64_t repl_offset = 0;  ///< fetch: starting byte
  uint64_t repl_len = 0;     ///< fetch: max bytes; crc: prefix length
};

/// What a protocol session talks to, fixed by its host: one service and
/// the host's hooks. Every connection of a server shares one.
struct ServeSession {
  ViewService* service = nullptr;
  /// Set by hosts running a replica applier: the `promote` verb invokes it
  /// (stop shipping, release the applier's LOCK, promote the service) and
  /// answers the promoted epoch. Without it, `promote` falls back to
  /// ViewService::Promote directly.
  std::function<Result<uint64_t>()> promote;
  /// Replica hosts: appended to `stats` as ` lag_epochs <e> lag_bytes <b>`.
  std::function<ReplicationLag()> lag_probe;
};

/// Stable lowercase name of a verb for metric labels ("labels", "admit",
/// ...). Never null.
const char* ServeVerbName(ServeRequest::Kind kind);

/// The full Prometheus-style exposition text the `metrics` verb and
/// `gvex_netserve --metrics-dump` emit: every registered obs family plus
/// a service section (epoch, label/code counts, admission + cache + index
/// + compaction counters read from `service.stats()`) and process
/// uptime/start gauges.
std::string RenderMetricsText(const ViewService& service);

/// How many payload blocks follow `head`'s keyword line (the
/// whitespace-split first line of a request), and which line closes each
/// of them (*terminator views a string literal). Returns 0 for block-less
/// (and unknown) requests. This is the framing knowledge shared by every
/// byte-stream front end — the stdin read loop (tools/gvex_serve) and the
/// TCP incremental framer (net/) — so a request is only handed to the
/// parser once it is COMPLETE.
int ServeRequestShape(const std::vector<std::string_view>& head,
                      std::string_view* terminator);

/// Parses one request from the cursor (blank lines skipped) and moves it
/// past the request — past the payload block too, so a malformed request
/// does not desynchronize the stream. Patterns, graphs and views are read
/// in place from the cursor's text. Returns NotFound at end of input,
/// InvalidArgument on malformed requests.
Result<ServeRequest> ParseServeRequest(LineCursor* lines);

/// The same over lines[*pos...] (as Split(text, '\n') returns them: no
/// line holds a '\n'), advancing *pos past the request. Joins the
/// remaining lines and parses them with a cursor.
Result<ServeRequest> ParseServeRequest(const std::vector<std::string>& lines,
                                       size_t* pos);

/// Executes one request against a session; returns the newline-terminated
/// response text.
std::string HandleServeRequest(const ServeSession& session,
                               const ServeRequest& req);

/// Parses and executes every request in `text`, concatenating responses.
/// `quit` (optional) is set when a quit request was seen — callers running
/// a read loop should stop feeding input then.
std::string ServeText(const ServeSession& session, std::string_view text,
                      bool* quit = nullptr);

/// Shorthand for a session with no host hooks.
std::string ServeText(ViewService* service, std::string_view text,
                      bool* quit = nullptr);

}  // namespace gvex

#endif  // GVEX_SERVE_SERVE_PROTOCOL_H_
