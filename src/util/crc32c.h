// CRC32C (Castagnoli) checksums. Used to validate WAL records, SSTable
// blocks and PM table images. Extend runs the SSE4.2 crc32 instruction when
// the CPU has it (chosen once at runtime, no build flag needed) and a
// slicing-by-4 table otherwise; both give the same value.

#ifndef PMBLADE_UTIL_CRC32C_H_
#define PMBLADE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace pmblade {
namespace crc32c {

/// Returns the CRC32C of data[0..n-1], continuing from `init_crc` (the CRC of
/// some preceding byte string).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven kernel Extend falls back to; same contract. Exposed as
/// the oracle for the hardware kernel.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// CRC32C of data[0..n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masking for CRCs stored alongside the data they cover (a stored CRC of
/// bytes that themselves contain that CRC is problematic); same scheme as
/// LevelDB/RocksDB.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace pmblade

#endif  // PMBLADE_UTIL_CRC32C_H_
