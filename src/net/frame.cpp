#include "net/frame.h"

#include <vector>

#include "serve/serve_protocol.h"
#include "util/string_util.h"

namespace gvex {

void RequestFramer::Feed(const char* data, size_t n) {
  if (broken_) return;  // the connection is closing; drop the bytes
  if (start_ > 0) {
    buffer_.erase(0, start_);
    scan_ -= start_;
    start_ = 0;
  }
  buffer_.append(data, n);
}

void RequestFramer::TakeFrame(std::string* frame) {
  const std::string_view bytes(buffer_.data() + start_, scan_ - start_);
  if (!frame_has_cr_) {
    frame->assign(bytes);
  } else {
    // Drop one CR before each '\n' (netcat-style clients; the stdin
    // path's getline never sees one either way).
    frame->clear();
    frame->reserve(frame_bytes_);
    size_t b = 0;
    while (b < bytes.size()) {
      const size_t nl = bytes.find('\n', b);
      size_t e = nl;
      if (e > b && bytes[e - 1] == '\r') --e;
      frame->append(bytes, b, e - b);
      frame->push_back('\n');
      b = nl + 1;
    }
  }
  start_ = scan_;
}

RequestFramer::Next RequestFramer::Pop(std::string* frame,
                                       std::string* error) {
  while (true) {
    if (broken_) {
      *error = error_;
      return Next::kBroken;
    }
    const size_t nl = buffer_.find('\n', scan_);
    if (nl == std::string::npos) {
      if (buffer_.size() - scan_ > limits_.max_line_bytes) {
        broken_ = true;
        error_ = StrFormat("err line exceeds %zu bytes\n",
                           limits_.max_line_bytes);
        continue;
      }
      return Next::kNeedMore;
    }
    if (nl - scan_ > limits_.max_line_bytes) {
      broken_ = true;
      error_ =
          StrFormat("err line exceeds %zu bytes\n", limits_.max_line_bytes);
      continue;
    }
    // Consume one complete line, seen without a trailing CR.
    std::string_view line(buffer_.data() + scan_, nl - scan_);
    const bool cr = !line.empty() && line.back() == '\r';
    if (cr) line.remove_suffix(1);
    scan_ = nl + 1;

    if (blocks_remaining_ == 0) {
      // Expecting a keyword line; blank separators yield no frame.
      const std::string_view trimmed = TrimView(line);
      if (trimmed.empty()) {
        start_ = scan_;
        continue;
      }
      const std::vector<std::string_view> head = SplitWhitespaceView(trimmed);
      keyword_.assign(head[0]);
      frame_bytes_ = line.size() + 1;
      frame_has_cr_ = cr;
      const int blocks = ServeRequestShape(head, &terminator_);
      if (blocks == 0) {
        TakeFrame(frame);
        return Next::kFrame;
      }
      blocks_remaining_ = blocks;
      continue;
    }

    frame_bytes_ += line.size() + 1;
    frame_has_cr_ = frame_has_cr_ || cr;
    if (frame_bytes_ > limits_.max_frame_bytes) {
      broken_ = true;
      error_ = StrFormat("err request exceeds %zu bytes\n",
                         limits_.max_frame_bytes);
      continue;
    }
    if (TrimView(line) == terminator_ && --blocks_remaining_ == 0) {
      TakeFrame(frame);
      return Next::kFrame;
    }
  }
}

}  // namespace gvex
