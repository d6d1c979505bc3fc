// Incremental CRC-32 (zlib polynomial, reflected) shared by every
// persisted byte path: run-file blocks, serving manifests, wire frames,
// and KV-store segment records all use this one routine, so a checksum
// written by any layer can be re-verified with the same call.
//
// Two kernels compute the same function. On x86-64 CPUs with PCLMULQDQ
// and SSE4.1 (checked once, at the first call), inputs of 64 bytes or
// more fold 16-byte lanes with carry-less multiplication and the
// portable slicing-by-8 loop finishes the tail; everywhere else the
// slicing-by-8 loop is the whole kernel. The CPU check selects code, not
// results: every kernel yields the same value for the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ngram {

/// Extends the running CRC-32 `crc` (0 for a fresh stream) over
/// `data[0, n)` and returns the new value.
uint32_t Crc32(uint32_t crc, const char* data, size_t n);

namespace internal {

/// The portable slicing-by-8 kernel alone, whatever the CPU. Exposed so
/// tests can check it against a reference on hosts where Crc32 folds.
uint32_t Crc32Portable(uint32_t crc, const char* data, size_t n);

}  // namespace internal

}  // namespace ngram
