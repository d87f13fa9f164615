#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PMBLADE_CRC32C_SSE42 1
#endif

namespace pmblade {
namespace crc32c {
namespace {

// Table-driven CRC32C with the Castagnoli polynomial (reflected: 0x82f63b78),
// generated at startup. Slicing-by-4 keeps throughput reasonable without
// hardware support.
struct Tables {
  uint32_t t[4][256];
  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#ifdef PMBLADE_CRC32C_SSE42
// Compiled for SSE4.2 on this one function only, so the binary still runs on
// CPUs without it; Extend calls it only after checking the CPU.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef PMBLADE_CRC32C_SSE42
  __builtin_cpu_init();  // may run before the runtime's own init
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &ExtendPortable;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn kExtend = ChooseExtend();
  return kExtend(init_crc, data, n);
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tb = tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Process 4 bytes at a time.
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[3][crc & 0xff] ^ tb.t[2][(crc >> 8) & 0xff] ^
          tb.t[1][(crc >> 16) & 0xff] ^ tb.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

}  // namespace crc32c
}  // namespace pmblade
