// Incremental CRC-32 (zlib polynomial, reflected) shared by every
// persisted byte path: run-file blocks, serving manifests, wire frames,
// and KV-store segment records all use this one routine, so a checksum
// written by any layer can be re-verified with the same call.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ngram {

/// Extends the running CRC-32 `crc` (0 for a fresh stream) over
/// `data[0, n)` and returns the new value.
uint32_t Crc32(uint32_t crc, const char* data, size_t n);

}  // namespace ngram
