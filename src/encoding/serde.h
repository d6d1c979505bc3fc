// Serde<T>: the (de)serialization trait used for every key and value type
// that crosses the shuffle or is persisted in the KV store.
//
// Contract: Encode appends the wire form of a value to a string; Decode
// consumes exactly one complete value from a slice that contains exactly one
// value (record framing is supplied by the caller). Decode returns false on
// malformed input instead of throwing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "encoding/sequence.h"
#include "encoding/varint.h"
#include "util/slice.h"

namespace ngram {

template <typename T>
struct Serde;  // Specialize for each wire type.

template <>
struct Serde<uint32_t> {
  static void Encode(const uint32_t& v, std::string* out) {
    PutVarint32(out, v);
  }
  static bool Decode(Slice in, uint32_t* out) {
    return GetVarint32(&in, out) && in.empty();
  }
};

template <>
struct Serde<uint64_t> {
  static void Encode(const uint64_t& v, std::string* out) {
    PutVarint64(out, v);
  }
  static bool Decode(Slice in, uint64_t* out) {
    return GetVarint64(&in, out) && in.empty();
  }
};

template <>
struct Serde<int64_t> {
  static void Encode(const int64_t& v, std::string* out) {
    PutVarintSigned64(out, v);
  }
  static bool Decode(Slice in, int64_t* out) {
    return GetVarintSigned64(&in, out) && in.empty();
  }
};

template <>
struct Serde<std::string> {
  static void Encode(const std::string& v, std::string* out) {
    out->append(v);
  }
  static bool Decode(Slice in, std::string* out) {
    out->assign(in.data(), in.size());
    return true;
  }
};

/// Term sequences are encoded with no length prefix (see SequenceCodec);
/// they are always the sole content of their frame.
template <>
struct Serde<TermSequence> {
  static void Encode(const TermSequence& v, std::string* out) {
    SequenceCodec::Encode(v, out);
  }
  static bool Decode(Slice in, TermSequence* out) {
    return SequenceCodec::Decode(in, out);
  }
};

/// Pairs get an internal length prefix on the first element so the split
/// point is recoverable.
template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Encode(const std::pair<A, B>& v, std::string* out) {
    std::string first;
    Serde<A>::Encode(v.first, &first);
    PutVarint64(out, first.size());
    out->append(first);
    Serde<B>::Encode(v.second, out);
  }
  static bool Decode(Slice in, std::pair<A, B>* out) {
    uint64_t first_len = 0;
    if (!GetVarint64(&in, &first_len) || first_len > in.size()) {
      return false;
    }
    Slice first(in.data(), first_len);
    in.RemovePrefix(first_len);
    return Serde<A>::Decode(first, &out->first) &&
           Serde<B>::Decode(in, &out->second);
  }
};

/// Vectors are encoded as count followed by length-prefixed elements.
template <typename T>
struct Serde<std::vector<T>> {
  static void Encode(const std::vector<T>& v, std::string* out) {
    PutVarint64(out, v.size());
    std::string tmp;
    for (const T& item : v) {
      tmp.clear();
      Serde<T>::Encode(item, &tmp);
      PutVarint64(out, tmp.size());
      out->append(tmp);
    }
  }
  static bool Decode(Slice in, std::vector<T>* out) {
    uint64_t n = 0;
    // Each element carries at least its length byte.
    if (!GetVarint64(&in, &n) || n > in.size()) {
      return false;
    }
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t len = 0;
      if (!GetVarint64(&in, &len) || len > in.size()) {
        return false;
      }
      T item;
      if (!Serde<T>::Decode(Slice(in.data(), len), &item)) {
        return false;
      }
      in.RemovePrefix(len);
      out->push_back(std::move(item));
    }
    return in.empty();
  }
};

/// Convenience: serializes `v` into a fresh string.
template <typename T>
std::string SerializeToString(const T& v) {
  std::string out;
  Serde<T>::Encode(v, &out);
  return out;
}

/// Convenience: deserializes a complete value from `in`.
template <typename T>
bool DeserializeFromSlice(Slice in, T* out) {
  return Serde<T>::Decode(in, out);
}

}  // namespace ngram
