// RequestFramer: incremental framing of the serve_protocol line protocol
// over an untrusted byte stream. TCP delivers requests split or coalesced
// arbitrarily across read()s — a keyword line may arrive one byte at a
// time, or fifty pipelined requests in one segment — so the framer
// accumulates bytes and surfaces COMPLETE requests (keyword line plus all
// payload blocks, per ServeRequestShape) one at a time. Nothing is ever
// handed to the parser mid-block: a connection that dies mid-payload
// leaves only an unconsumed partial frame behind, which is discarded —
// the half-received admit can never publish.
//
// Two byte limits defend the server's memory against hostile streams:
// a line longer than `max_line_bytes` (no '\n' in sight) or a frame
// larger than `max_frame_bytes` (e.g. an "admit" whose view block never
// ends) BREAKS the framer — Pop returns kBroken with a protocol-shaped
// "err ..." message, and the connection should flush it and close.
// Resynchronizing inside an abandoned payload block would misparse
// payload lines as requests, so broken is terminal by design.
//
// Bytes are scanned in place: a consumed offset moves through the buffer
// line by line, a complete frame is copied out once, and the buffer is
// compacted at most once per Feed.
//
// Not thread-safe; one framer per connection.

#ifndef GVEX_NET_FRAME_H_
#define GVEX_NET_FRAME_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace gvex {

class RequestFramer {
 public:
  struct Limits {
    size_t max_line_bytes = 1 << 20;   ///< 1 MiB per protocol line
    size_t max_frame_bytes = 8 << 20;  ///< 8 MiB per complete request
  };

  enum class Next {
    kFrame,     ///< *frame holds one complete request's text
    kNeedMore,  ///< nothing complete buffered; feed more bytes
    kBroken,    ///< limits exceeded; *error holds an "err ..." response
  };

  RequestFramer() : RequestFramer(Limits()) {}
  explicit RequestFramer(Limits limits) : limits_(limits) {}

  /// Appends raw bytes from the socket.
  void Feed(const char* data, size_t n);

  /// Extracts the next complete request. Blank lines between requests are
  /// skipped (matching the stdin path). Once kBroken is returned, every
  /// subsequent Pop returns kBroken again.
  Next Pop(std::string* frame, std::string* error);

  /// The first word of the keyword line of the frame the last kFrame Pop
  /// returned; read it before the next Pop. (The framer splits that line
  /// anyway to learn the request's shape.)
  const std::string& keyword() const { return keyword_; }

  /// True when no partial frame or partial line is buffered — i.e. the
  /// stream ended on a request boundary.
  bool idle() const { return !broken_ && start_ == buffer_.size(); }

  /// Bytes buffered but not yet surfaced as frames.
  size_t buffered_bytes() const { return buffer_.size() - start_; }

 private:
  /// Surfaces buffer_[start_, scan_) as *frame, minus each line's CR.
  void TakeFrame(std::string* frame);

  Limits limits_;
  /// Raw bytes: [0, start_) are surfaced or skipped (dropped by the next
  /// Feed), [start_, scan_) the in-progress frame's complete lines, and
  /// [scan_, size) not yet split into lines.
  std::string buffer_;
  size_t start_ = 0;
  size_t scan_ = 0;
  /// The in-progress frame's size with CRs dropped (the max_frame_bytes
  /// measure), and whether any of its lines ended in a CR.
  size_t frame_bytes_ = 0;
  bool frame_has_cr_ = false;
  int blocks_remaining_ = 0;
  std::string_view terminator_;  ///< views a string literal
  std::string keyword_;
  bool broken_ = false;
  std::string error_;
};

}  // namespace gvex

#endif  // GVEX_NET_FRAME_H_
