// Small string helpers shared by serialization and the bench table printers.

#ifndef GVEX_UTIL_STRING_UTIL_H_
#define GVEX_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gvex {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Splits on arbitrary whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(const std::string& s);

/// SplitWhitespace without copies: the fields are views into `s`.
std::vector<std::string_view> SplitWhitespaceView(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// The whitespace every splitter and trimmer here skips: ' ', '\t', '\n',
/// '\v', '\f' and '\r' — what isspace matches in the "C" locale, in any
/// locale.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Trim without a copy: the result is a view into `s`.
inline std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Removes and returns the first whitespace-separated field of *rest
/// (empty when none is left); *rest keeps what follows it.
inline std::string_view NextField(std::string_view* rest) {
  const std::string_view s = *rest;
  size_t b = 0;
  while (b < s.size() && IsAsciiSpace(s[b])) ++b;
  size_t e = b;
  while (e < s.size() && !IsAsciiSpace(s[e])) ++e;
  *rest = s.substr(e);
  return s.substr(b, e - b);
}

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` begins with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

// Exception-free whole-string numeric parsing for line-oriented formats
// fed by untrusted byte streams (sockets, fuzzers): the std::stoi family
// throws on garbage, which would escape the Status error model as a
// crash. All three accept only when the ENTIRE string parses ("1x" or ""
// fail) and the value fits the target type.

/// Parses a base-10 integer into *out; false on garbage/partial/overflow.
/// Accepts what strtol does, minus leading whitespace: an optional sign,
/// then digits.
bool ParseInt(std::string_view s, int* out);

/// Parses a double into *out; false on garbage/partial/overflow.
bool ParseDouble(std::string_view s, double* out);

/// Parses a float into *out; false on garbage/partial/overflow.
bool ParseFloat(std::string_view s, float* out);

/// Parses a base-10 unsigned 64-bit integer into *out; false on
/// garbage/partial/overflow ("-1" fails — no negative wraparound).
bool ParseUint64(std::string_view s, uint64_t* out);

/// Walks text one line at a time, as views into it — the lines
/// Split(text, '\n') would return, in order, without copying any. Text
/// that ends in '\n' therefore ends with one empty line, and "" is one
/// empty line. The text must outlive the cursor.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Sets *line to the next line (without its '\n'); false when every
  /// line has been returned.
  bool Next(std::string_view* line) {
    if (done_) return false;
    const size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      *line = text_.substr(pos_);
      pos_ = text_.size();
      done_ = true;
    } else {
      *line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    ++lines_;
    return true;
  }

  /// Lines returned so far.
  size_t lines_read() const { return lines_; }

  /// Byte offset of the next line in the text.
  size_t offset() const { return pos_; }

  std::string_view text() const { return text_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  size_t lines_ = 0;
  bool done_ = false;
};

/// Lowercase hex encoding of arbitrary bytes (the replication protocol
/// ships binary chunks as one hex token per line).
std::string HexEncode(const std::string& bytes);

/// Inverse of HexEncode; false on odd length or non-hex characters.
bool HexDecode(const std::string& hex, std::string* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...);

}  // namespace gvex

#endif  // GVEX_UTIL_STRING_UTIL_H_
