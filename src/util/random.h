// Deterministic pseudo-random number utilities for tests, workload
// generation and skiplist height selection.

#ifndef PMBLADE_UTIL_RANDOM_H_
#define PMBLADE_UTIL_RANDOM_H_

#include <cstdint>
#include <string>

namespace pmblade {

/// xorshift128+ generator: fast, decent quality, fully deterministic from the
/// seed. Not for cryptographic use.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 to spread the seed over both words.
    auto mix = [&seed]() {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    s0_ = mix();
    s1_ = mix();
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  uint64_t Next64() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  uint32_t Next() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next64() % n; }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability 1/n.
  bool OneIn(uint64_t n) { return Uniform(n) == 0; }

  /// Fills `dst` with `len` random lowercase-alphanumeric bytes.
  void RandomString(size_t len, std::string* dst);

  /// Random printable-byte payload of `len` bytes (appends to dst).
  void RandomBytes(size_t len, std::string* dst);

 private:
  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace pmblade

#endif  // PMBLADE_UTIL_RANDOM_H_
