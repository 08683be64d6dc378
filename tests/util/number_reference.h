// Test-only oracle: the whole-string numeric parsers of
// util/string_util.cpp as they were before they took string_views and
// integers went through std::from_chars — strtol/strtoull/strtod/strtof on
// the std::string's c_str(). Kept verbatim so StringUtilTest can pin the
// production parsers to them (and serve/parse_reference.h builds on them).

#ifndef GVEX_TESTS_UTIL_NUMBER_REFERENCE_H_
#define GVEX_TESTS_UTIL_NUMBER_REFERENCE_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace gvex {
namespace testing {
namespace number_reference {

inline bool ParseInt(const std::string& s, int* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;  // strtol would skip leading whitespace; reject it
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (value < INT_MIN || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

inline bool ParseDouble(const std::string& s, double* out) {
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

inline bool ParseFloat(const std::string& s, float* out) {
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

inline bool ParseUint64(const std::string& s, uint64_t* out) {
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

}  // namespace number_reference
}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_UTIL_NUMBER_REFERENCE_H_
