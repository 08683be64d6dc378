#include "net/session.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace gvex {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Session-level net instruments, registered once per process.
struct SessionInstruments {
  obs::Counter* pauses;
  obs::Histogram* paused_seconds;
  obs::Counter* kills;
  obs::Counter* admits_refused;
  obs::Counter* oversized_line;
  obs::Counter* runaway_frame;
};

const SessionInstruments& SessionObs() {
  static const SessionInstruments* instruments = [] {
    auto* si = new SessionInstruments();
    obs::Registry& m = obs::Metrics();
    si->pauses = m.GetCounter(
        "gvex_net_backpressure_pauses_total",
        "Times a session's write buffer crossed the soft cap and reading "
        "paused");
    si->paused_seconds = m.GetHistogram(
        "gvex_net_backpressure_paused_seconds",
        "Duration of soft-cap pauses that resumed (a pause cut short by "
        "the connection closing is not observed)",
        obs::Unit::kNanoseconds);
    si->kills = m.GetCounter(
        "gvex_net_backpressure_kills_total",
        "Connections killed by the write hard cap");
    si->admits_refused = m.GetCounter(
        "gvex_net_admits_refused_total",
        "admit requests refused by the per-session admission quota");
    si->oversized_line = m.GetCounter(
        "gvex_net_frame_errors_total",
        "Connections closed by the incremental framer, per reason",
        "reason", "oversized_line");
    si->runaway_frame = m.GetCounter(
        "gvex_net_frame_errors_total",
        "Connections closed by the incremental framer, per reason",
        "reason", "runaway_frame");
    return si;
  }();
  return *instruments;
}

}  // namespace

NetSession::NetSession(int fd, const ServeSession& serve,
                       NetSessionLimits limits,
                       std::function<void()> on_shutdown)
    : fd_(fd),
      serve_(serve),
      limits_(limits),
      on_shutdown_(std::move(on_shutdown)),
      framer_(limits.frame),
      admits_left_(limits.admit_quota > 0 ? limits.admit_quota : -1),
      last_activity_(std::chrono::steady_clock::now()) {}

NetSession::~NetSession() {
  if (fd_ >= 0) ::close(fd_);
}

bool NetSession::wants_read() const {
  if (eof_ || draining_ || killed_ || close_after_flush_) return false;
  return write_buf_.size() - write_off_ <= limits_.write_soft_cap;
}

void NetSession::Respond(const std::string& text) {
  write_buf_.append(text);
  total_appended_ += text.size();
  // Compact the flushed prefix before it grows unbounded.
  if (write_off_ > (64 << 10) && write_off_ * 2 > write_buf_.size()) {
    write_buf_.erase(0, write_off_);
    write_off_ = 0;
  }
  if (write_buf_.size() - write_off_ > limits_.write_hard_cap && !killed_) {
    killed_ = true;
    killed_by_backpressure_ = true;
    SessionObs().kills->Add(1);
    obs::RecordFlight(obs::FlightKind::kBackpressure,
                      "session fd %d killed: %zu bytes unflushed past the "
                      "hard cap (%zu)",
                      fd_, write_buf_.size() - write_off_,
                      limits_.write_hard_cap);
  }
}

void NetSession::CompleteFlushedTraces() {
  size_t done = 0;
  // Appended in flush order, so the completed prefix is contiguous.
  while (done < pending_traces_.size() &&
         pending_traces_[done].flush_target <= total_flushed_) {
    PendingTrace& t = pending_traces_[done];
    t.spans.flush_us = SecondsSince(t.flush_start) * 1e6;
    obs::GlobalTraceRing().Record(std::move(t.spans));
    ++done;
  }
  if (done > 0) {
    pending_traces_.erase(pending_traces_.begin(),
                          pending_traces_.begin() + static_cast<long>(done));
  }
}

void NetSession::ProcessFrames() {
  std::string frame;
  std::string error;
  // close_after_flush_ also stops processing: a broken framer reports
  // kBroken on every Pop, and re-entering here after the error flushed
  // would append it again forever.
  while (!killed_ && !close_after_flush_) {
    // Backpressure: buffered frames wait while the peer refuses to drain
    // its responses; they resume after a flush.
    if (write_buf_.size() - write_off_ > limits_.write_soft_cap) {
      backpressure_engaged_ = true;
      if (!paused_) {
        paused_ = true;
        pause_start_ = std::chrono::steady_clock::now();
        SessionObs().pauses->Add(1);
      }
      return;
    }
    if (paused_) {
      paused_ = false;
      SessionObs().paused_seconds->ObserveSeconds(SecondsSince(pause_start_));
    }
    const RequestFramer::Next next = framer_.Pop(&frame, &error);
    if (next == RequestFramer::Next::kNeedMore) return;
    if (next == RequestFramer::Next::kBroken) {
      // Oversized line/frame: answer err, then close — resyncing inside
      // an abandoned payload block would misparse payload as requests.
      const bool oversized = error.find("line exceeds") != std::string::npos;
      (oversized ? SessionObs().oversized_line : SessionObs().runaway_frame)
          ->Add(1);
      obs::RecordFlight(obs::FlightKind::kFrameError,
                        "session fd %d closed by framer: %s", fd_,
                        oversized ? "oversized_line" : "runaway_frame");
      Respond(error);
      close_after_flush_ = true;
      return;
    }
    // Frame span: first byte of this frame buffered (including any
    // backpressure stall) to the Pop that completed it. The framer may
    // already hold the NEXT frame's first bytes — its span starts now.
    const auto pop_time = std::chrono::steady_clock::now();
    const auto frame_start = have_buffer_start_ ? buffer_start_ : pop_time;
    have_buffer_start_ = framer_.buffered_bytes() > 0;
    buffer_start_ = pop_time;
    ++frames_executed_;
    const std::string& keyword = framer_.keyword();
    if (keyword == "shutdown") {
      // Net-layer verb: begin a graceful server drain. Deliberately not
      // part of serve_protocol — over stdin "shutdown" stays an unknown
      // request; killing a shared server is a transport-level act.
      Respond("ok draining\n");
      if (on_shutdown_) on_shutdown_();
      continue;
    }
    if (keyword == "admit" && admits_left_ == 0) {
      ++admits_refused_;
      SessionObs().admits_refused->Add(1);
      Respond("err admission quota exhausted\n");
      continue;
    }
    if (keyword == "admit" && admits_left_ > 0) --admits_left_;
    bool quit = false;
    const bool sampled = obs::SampleTrace();
    const auto exec_start = std::chrono::steady_clock::now();
    const std::string response = ServeText(serve_, frame, &quit);
    if (sampled) {
      PendingTrace t;
      t.spans.verb = keyword.empty() ? "?" : keyword;
      t.spans.frame_us =
          std::chrono::duration<double>(pop_time - frame_start).count() * 1e6;
      t.spans.queue_us =
          std::chrono::duration<double>(exec_start - pop_time).count() * 1e6;
      t.spans.execute_us = SecondsSince(exec_start) * 1e6;
      t.flush_start = std::chrono::steady_clock::now();
      t.flush_target = total_appended_ + response.size();
      pending_traces_.push_back(std::move(t));
    }
    Respond(response);
    if (quit) {
      close_after_flush_ = true;
      return;
    }
  }
}

NetSession::Verdict NetSession::HandleReadable() {
  char buf[64 << 10];
  // Per-event byte budget so one firehose connection cannot monopolize
  // its worker loop; level-triggered polling redelivers the rest.
  size_t budget = 512 << 10;
  while (wants_read() && budget > 0) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      last_activity_ = std::chrono::steady_clock::now();
      if (!have_buffer_start_ && framer_.buffered_bytes() == 0) {
        // First bytes of a new frame: the frame span starts here.
        have_buffer_start_ = true;
        buffer_start_ = last_activity_;
      }
      framer_.Feed(buf, static_cast<size_t>(n));
      budget -= static_cast<size_t>(n) < budget ? static_cast<size_t>(n)
                                                : budget;
      ProcessFrames();
      continue;
    }
    if (n == 0) {
      // Half-close: the client may still be reading; execute what is
      // fully framed, flush it, then close. Partial frames are dropped.
      eof_ = true;
      ProcessFrames();
      close_after_flush_ = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Verdict::kClose;  // connection reset etc.
  }
  if (killed_) return Verdict::kClose;
  return HandleWritable();
}

NetSession::Verdict NetSession::HandleWritable() {
  while (wants_write()) {
    const ssize_t n =
        ::send(fd_, write_buf_.data() + write_off_,
               write_buf_.size() - write_off_, MSG_NOSIGNAL);
    if (n > 0) {
      write_off_ += static_cast<size_t>(n);
      total_flushed_ += static_cast<uint64_t>(n);
      last_activity_ = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Verdict::kClose;  // peer gone; response bytes are lost
  }
  if (!pending_traces_.empty()) CompleteFlushedTraces();
  if (write_off_ == write_buf_.size()) {
    write_buf_.clear();
    write_off_ = 0;
    // The flush may have dropped us back under the soft cap: execute
    // frames that were waiting on backpressure.
    if (!draining_ || framer_.buffered_bytes() > 0) ProcessFrames();
    if (killed_) return Verdict::kClose;
    if (!wants_write() && (close_after_flush_ || (draining_ && drained()))) {
      return Verdict::kClose;
    }
  }
  if (killed_) return Verdict::kClose;
  return Verdict::kKeep;
}

void NetSession::BeginDrain() {
  draining_ = true;
  // In-flight requests (fully framed before the drain) finish now; their
  // responses flush below / on later writable events.
  ProcessFrames();
}

}  // namespace gvex
