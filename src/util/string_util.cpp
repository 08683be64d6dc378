#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gvex {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (IsAsciiSpace(c)) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<std::string_view> SplitWhitespaceView(std::string_view s) {
  std::vector<std::string_view> out;
  for (std::string_view f = NextField(&s); !f.empty(); f = NextField(&s)) {
    out.push_back(f);
  }
  return out;
}

std::string Trim(const std::string& s) { return std::string(TrimView(s)); }

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool ParseInt(std::string_view s, int* out) {
  // strtol's grammar through from_chars, which takes no leading '+' (but
  // "+-1" stays garbage) and no leading whitespace.
  if (!s.empty() && s[0] == '+') {
    s.remove_prefix(1);
    if (!s.empty() && s[0] == '-') return false;
  }
  int value = 0;
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, value);
  if (s.empty() || r.ec != std::errc() || r.ptr != end) return false;
  *out = value;
  return true;
}

// The strto* parsers below need a NUL-terminated copy; numeric fields are
// short enough to fit std::string's inline buffer.

bool ParseDouble(std::string_view field, double* out) {
  const std::string s(field);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = value;
  return true;
}

bool ParseFloat(std::string_view field, float* out) {
  const std::string s(field);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const float value = std::strtof(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = value;
  return true;
}

bool ParseUint64(std::string_view field, uint64_t* out) {
  const std::string s(field);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      s[0] == '-') {
    return false;  // strtoull silently wraps negatives; reject them
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

std::string HexEncode(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string decoded;
  decoded.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    decoded.push_back(static_cast<char>((hi << 4) | lo));
  }
  *out = std::move(decoded);
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace gvex
