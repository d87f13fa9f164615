// Bloom filter with double hashing, equivalent in structure to LevelDB's
// built-in filter policy. Attached per-SSTable to skip tables that cannot
// contain a key.

#ifndef PMBLADE_UTIL_BLOOM_H_
#define PMBLADE_UTIL_BLOOM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace pmblade {

/// Builds and probes bloom filters at a fixed bits-per-key budget.
class BloomFilterPolicy {
 public:
  /// `bits_per_key` ~10 gives ~1% false positive rate.
  explicit BloomFilterPolicy(int bits_per_key);

  /// Appends a filter covering `keys` to `dst`.
  void CreateFilter(const std::vector<Slice>& keys, std::string* dst) const;

  /// Appends the filter CreateFilter would build over the keys whose
  /// BloomHash values are `hashes`, bit for bit.
  void CreateFilterFromHashes(const std::vector<uint32_t>& hashes,
                              std::string* dst) const;

  /// May return false positives; never false negatives for keys passed to
  /// CreateFilter.
  bool KeyMayMatch(const Slice& key, const Slice& filter) const;

  static uint32_t BloomHash(const Slice& key);

 private:
  int bits_per_key_;
  int k_;  // number of probes
};

}  // namespace pmblade

#endif  // PMBLADE_UTIL_BLOOM_H_
