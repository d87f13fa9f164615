#include "util/bloom.h"

#include <cmath>

namespace pmblade {

namespace {
uint32_t Hash(const char* data, size_t n, uint32_t seed) {
  // Murmur-inspired hash (same scheme as LevelDB util/hash.cc).
  const uint32_t m = 0xc6a4a793;
  const uint32_t r = 24;
  const char* limit = data + n;
  uint32_t h = seed ^ (static_cast<uint32_t>(n) * m);

  while (data + 4 <= limit) {
    uint32_t w;
    memcpy(&w, data, 4);
    data += 4;
    h += w;
    h *= m;
    h ^= (h >> 16);
  }
  switch (limit - data) {
    case 3:
      h += static_cast<uint8_t>(data[2]) << 16;
      [[fallthrough]];
    case 2:
      h += static_cast<uint8_t>(data[1]) << 8;
      [[fallthrough]];
    case 1:
      h += static_cast<uint8_t>(data[0]);
      h *= m;
      h ^= (h >> r);
      break;
  }
  return h;
}
}  // namespace

uint32_t BloomFilterPolicy::BloomHash(const Slice& key) {
  return Hash(key.data(), key.size(), 0xbc9f1d34);
}

BloomFilterPolicy::BloomFilterPolicy(int bits_per_key)
    : bits_per_key_(bits_per_key) {
  // k = bits_per_key * ln(2), clamped.
  k_ = static_cast<int>(bits_per_key * 0.69);
  if (k_ < 1) k_ = 1;
  if (k_ > 30) k_ = 30;
}

void BloomFilterPolicy::CreateFilter(const std::vector<Slice>& keys,
                                     std::string* dst) const {
  std::vector<uint32_t> hashes;
  hashes.reserve(keys.size());
  for (const Slice& key : keys) hashes.push_back(BloomHash(key));
  CreateFilterFromHashes(hashes, dst);
}

void BloomFilterPolicy::CreateFilterFromHashes(
    const std::vector<uint32_t>& hashes, std::string* dst) const {
  size_t n = hashes.size();
  size_t bits = n * bits_per_key_;
  if (bits < 64) bits = 64;
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  const size_t init_size = dst->size();
  dst->resize(init_size + bytes, 0);
  dst->push_back(static_cast<char>(k_));  // remember probe count
  char* array = dst->data() + init_size;
  for (uint32_t h : hashes) {
    // Double hashing: h, h += delta per probe.
    const uint32_t delta = (h >> 17) | (h << 15);
    for (int j = 0; j < k_; ++j) {
      const uint32_t bitpos = h % bits;
      array[bitpos / 8] |= (1 << (bitpos % 8));
      h += delta;
    }
  }
}

bool BloomFilterPolicy::KeyMayMatch(const Slice& key,
                                    const Slice& filter) const {
  const size_t len = filter.size();
  if (len < 2) return false;

  const char* array = filter.data();
  const size_t bits = (len - 1) * 8;

  const int k = array[len - 1];
  if (k > 30) {
    // Reserved for future encodings; treat as a match (safe).
    return true;
  }

  uint32_t h = BloomHash(key);
  const uint32_t delta = (h >> 17) | (h << 15);
  for (int j = 0; j < k; ++j) {
    const uint32_t bitpos = h % bits;
    if ((array[bitpos / 8] & (1 << (bitpos % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace pmblade
