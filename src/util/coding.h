// Integer <-> byte-string codecs: little-endian fixed-width and LEB128-style
// varints, plus length-prefixed slices. Used by the WAL, SSTable and PM table
// formats.

#ifndef PMBLADE_UTIL_CODING_H_
#define PMBLADE_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace pmblade {

// ---- fixed-width little-endian ----

inline void EncodeFixed32(char* dst, uint32_t v) { memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { memcpy(dst, &v, 8); }

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

// ---- varints ----

/// Writes `v` as a varint at `dst` (which must have >= 5 bytes of room) and
/// returns a pointer just past the encoded bytes.
char* EncodeVarint32(char* dst, uint32_t v);
/// Same, 64-bit (needs >= 10 bytes of room).
char* EncodeVarint64(char* dst, uint64_t v);

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Parses a varint32 from [p, limit); returns pointer past it, or nullptr on
/// malformed/truncated input.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

/// Slice-consuming variants: advance `input` past the parsed value. Return
/// false on malformed input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);

/// Number of bytes VarintXX encoding of `v` occupies.
int VarintLength(uint64_t v);

// ---- length-prefixed slices ----

void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

}  // namespace pmblade

#endif  // PMBLADE_UTIL_CODING_H_
