// Checked numeric arguments for the command-line tools (ngram_tool,
// ngram_server): every numeric flag and positional count goes through
// ParseCount, which accepts decimal digits only — no sign, no whitespace,
// no empty value — and refuses values that overflow the destination. A
// caller treats false as a usage error.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>

namespace ngram::cli {

/// Parses `text` into `*out`. False (leaving `*out` untouched) unless
/// `text` is a non-empty string of digits whose value fits in T.
template <typename T>
bool ParseCount(const std::string& text, T* out) {
  static_assert(std::is_unsigned_v<T>, "counts are unsigned");
  if (text.empty()) {
    return false;
  }
  T value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const T digit = static_cast<T>(c - '0');
    if (value > (std::numeric_limits<T>::max() - digit) / 10) {
      return false;
    }
    value = static_cast<T>(value * 10 + digit);
  }
  *out = value;
  return true;
}

/// ParseCount for a `-kb` flag: `*bytes` receives the KiB count times
/// 1024, and a product that overflows size_t is refused too.
inline bool ParseKib(const std::string& text, size_t* bytes) {
  size_t kib = 0;
  if (!ParseCount(text, &kib) ||
      kib > std::numeric_limits<size_t>::max() / 1024) {
    return false;
  }
  *bytes = kib * 1024;
  return true;
}

}  // namespace ngram::cli
