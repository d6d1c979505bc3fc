// Slice: non-owning view over a byte range, RocksDB-style. Used pervasively
// by the shuffle layer so that serialized records can be compared and copied
// without deserialization or allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ngram {

/// \brief A non-owning pointer+length view over bytes.
///
/// The referenced memory must outlive the Slice. Comparison is bytewise
/// (memcmp order), matching how raw shuffle keys compare by default.
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const char* data, size_t size) : data_(data), size_(size) {}
  Slice(const uint8_t* data, size_t size)
      : data_(reinterpret_cast<const char*>(data)), size_(size) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT
  Slice(const char* s) : data_(s), size_(s ? strlen(s) : 0) {}       // NOLINT

  const char* data() const { return data_; }
  const uint8_t* udata() const {
    return reinterpret_cast<const uint8_t*>(data_);
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t i) const { return data_[i]; }

  /// Drops the first `n` bytes from the view.
  void RemovePrefix(size_t n) {
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view view() const { return std::string_view(data_, size_); }

  /// Three-way bytewise comparison (memcmp semantics).
  int compare(const Slice& other) const {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = min_len == 0 ? 0 : memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) return -1;
      if (size_ > other.size_) return +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    // The zero-size guard keeps memcmp away from null data pointers
    // (empty slices may carry nullptr; passing that to memcmp is UB).
    return size_ >= prefix.size_ &&
           (prefix.size_ == 0 ||
            memcmp(data_, prefix.data_, prefix.size_) == 0);
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() &&
         (a.empty() || memcmp(a.data(), b.data(), a.size()) == 0);
}
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

/// Length of the common prefix of `a[0, n)` and `b[0, n)`, scanning 8
/// bytes at a time (unaligned loads via memcpy, first difference via the
/// XOR).
inline size_t CommonPrefixLength(const char* a, const char* b, size_t n) {
  size_t i = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // On little-endian the lowest differing byte of the XOR is the first
  // differing byte of the streams.
  while (i + 8 <= n) {
    uint64_t wa, wb;
    memcpy(&wa, a + i, 8);
    memcpy(&wb, b + i, 8);
    if (wa != wb) {
      return i + static_cast<size_t>(__builtin_ctzll(wa ^ wb)) / 8;
    }
    i += 8;
  }
#endif
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

}  // namespace ngram
