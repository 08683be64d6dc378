// NetSession: one TCP connection's serving state — the glue between a
// nonblocking socket and the serve_protocol request handlers. Owns the
// fd, an incremental RequestFramer and a bounded write buffer, and refers
// to the server's one ServeSession (its service and host hooks).
//
// Request pipelining: every COMPLETE frame buffered on the connection is
// executed in arrival order and its response appended to the write
// buffer; requests and payload blocks split across reads simply wait in
// the framer. Partial frames are never parsed — a disconnect mid-payload
// discards them, so a half-received admit cannot publish.
//
// Backpressure: when the write buffer exceeds `write_soft_cap`, the
// session stops reading (wants_read() goes false — the worker drops its
// read interest) and stops executing further buffered frames, so one
// client that never drains its responses cannot balloon server memory or
// starve other connections. Past `write_hard_cap` the connection is
// killed outright. Both caps bound bytes, not requests.
//
// Admission quota: with `admit_quota` > 0, at most that many `admit`
// requests are executed per session; further admits answer "err ..."
// without touching the service.
//
// Thread-safety: a session is owned by exactly one worker event loop and
// never accessed concurrently. The ViewService it talks to is the
// concurrency-safe shared service.

#ifndef GVEX_NET_SESSION_H_
#define GVEX_NET_SESSION_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "obs/trace.h"
#include "serve/serve_protocol.h"

namespace gvex {

struct NetSessionLimits {
  size_t write_soft_cap = 256 << 10;  ///< stop reading past this
  size_t write_hard_cap = 8 << 20;    ///< kill the connection past this
  RequestFramer::Limits frame;
  int admit_quota = 0;  ///< max admits per session (0 = unlimited)
};

class NetSession {
 public:
  /// What the worker loop should do with the connection after an event.
  enum class Verdict {
    kKeep,   ///< keep serving
    kClose,  ///< close now (EOF handled, error, killed, or quit flushed)
  };

  /// `serve` must outlive the session; `on_shutdown` runs when the client
  /// sends the `shutdown` verb (the server hooks its Drain() in here).
  NetSession(int fd, const ServeSession& serve, NetSessionLimits limits,
             std::function<void()> on_shutdown);
  ~NetSession();

  NetSession(const NetSession&) = delete;
  NetSession& operator=(const NetSession&) = delete;

  int fd() const { return fd_; }

  /// Reads until EAGAIN (or the soft cap engages), executes complete
  /// frames, and tries to flush. Call when the socket is readable.
  Verdict HandleReadable();

  /// Flushes buffered response bytes. Call when the socket is writable.
  Verdict HandleWritable();

  /// Poller interest: reading stops under backpressure, after EOF/quit,
  /// and during drain.
  bool wants_read() const;
  bool wants_write() const { return write_off_ < write_buf_.size(); }

  /// Enters drain: stop reading new bytes, execute the complete frames
  /// already buffered, flush. drained() turns true once nothing is left
  /// to send — the worker then closes the connection.
  void BeginDrain();
  bool drained() const { return !wants_write(); }

  /// Last moment the connection made progress (bytes read or flushed) —
  /// the idle-timeout clock.
  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

  /// True when the session was killed by the write hard cap (for stats).
  bool killed_by_backpressure() const { return killed_by_backpressure_; }
  /// True when the soft cap ever paused reading (for stats/tests).
  bool backpressure_engaged() const { return backpressure_engaged_; }
  uint64_t frames_executed() const { return frames_executed_; }
  uint64_t admits_refused() const { return admits_refused_; }

 private:
  /// One sampled request whose flush span is still open: completes (and
  /// records into the global trace ring) once total_flushed_ reaches
  /// flush_target — the moment the last byte of ITS response hit the
  /// kernel.
  struct PendingTrace {
    obs::TraceSpans spans;
    uint64_t flush_target = 0;
    std::chrono::steady_clock::time_point flush_start;
  };

  /// Executes buffered complete frames while under the soft cap.
  void ProcessFrames();
  /// Appends to the write buffer; kills the session past the hard cap.
  void Respond(const std::string& text);
  /// Records sampled traces whose responses are now fully flushed.
  void CompleteFlushedTraces();

  int fd_;
  const ServeSession& serve_;
  NetSessionLimits limits_;
  std::function<void()> on_shutdown_;
  RequestFramer framer_;
  std::string write_buf_;
  size_t write_off_ = 0;
  int admits_left_;  ///< -1 = unlimited
  std::chrono::steady_clock::time_point last_activity_;
  bool eof_ = false;
  bool draining_ = false;
  bool close_after_flush_ = false;
  bool killed_ = false;
  bool killed_by_backpressure_ = false;
  bool backpressure_engaged_ = false;
  uint64_t frames_executed_ = 0;
  uint64_t admits_refused_ = 0;
  /// Soft-cap pause in progress (its duration is observed on resume).
  bool paused_ = false;
  std::chrono::steady_clock::time_point pause_start_;
  /// When the framer went from empty to holding bytes of the NEXT frame —
  /// the frame span's start. Backpressure stalls land in this span.
  bool have_buffer_start_ = false;
  std::chrono::steady_clock::time_point buffer_start_;
  /// Monotone byte counters pairing responses with their flush moment.
  uint64_t total_appended_ = 0;
  uint64_t total_flushed_ = 0;
  std::vector<PendingTrace> pending_traces_;
};

}  // namespace gvex

#endif  // GVEX_NET_SESSION_H_
