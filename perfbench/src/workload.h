// Request generation: seeded random streams, key naming, self-describing
// values and the four workload definitions.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace perfbench {

/// SplitMix64: small, fast, seedable; one stream per connection.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// YCSB scrambled Zipfian over [0, n): item ranks are hashed over the key
/// space so the hot keys are scattered, not clustered at low ids.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta);
  uint64_t Next(Rng* rng) const;

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Key of logical item `id`: "k" + 16 hex digits of a fixed bijective mix
/// of the id, so present and absent ids interleave in key order and absent
/// probes land inside table key ranges (the bloom filters, not the range
/// check, must reject them).
std::string KeyName(uint64_t id);
/// The 64-bit number a KeyName encodes; 0 for keys of another form.
uint64_t KeyNumber(const pmblade::Slice& key);
/// The number KeyName(id) encodes, without formatting.
uint64_t KeyNumberOf(uint64_t id);

/// Self-describing value of `size` bytes for (key, version): the key, the
/// version, filler derived from both and a trailing checksum.
std::string MakeValue(const std::string& key, uint32_t version, size_t size);
/// Validates `value` as a value of `key`; on success stores its version.
bool ParseValue(const std::string& key, const pmblade::Slice& value,
                uint32_t* version);

/// Operation classes. Each workload's mix draws from a subset; the rest
/// are measured by a short probe phase after the mix (see main.cc).
enum class OpClass { kGetHit = 0, kGetMiss, kSet, kMGet, kMSet };
constexpr int kNumOpClasses = 5;
const char* OpClassName(OpClass op);

enum class KeyDist { kUniform, kZipfian };

struct WorkloadSpec {
  std::string name;
  uint32_t shards = 1;
  uint64_t preload_keys = 0;    // ids [0, preload_keys) exist before the mix
  uint64_t keyspace = 0;        // ids the mix draws from
  size_t value_bytes = 256;
  KeyDist dist = KeyDist::kZipfian;
  double zipf_theta = 0.99;
  // Mix weights (sum 1): GET covers both hit and miss classes; a GET is a
  // hit or a miss by its reply.
  double w_get = 0, w_set = 0, w_mget = 0, w_mset = 0;
  uint64_t ops_per_conn = 0;    // fixed operation count per connection
  // Set-up shape.
  bool flush_and_sort_l0 = false;   // FlushMemTable + CompactLevel0
  bool move_to_level1 = false;      // CompactToLevel1(false)
  // Engine sizing (0 = engine default).
  size_t memtable_bytes = 0;
  uint64_t tau_m = 0;
  size_t block_cache_bytes = 256 << 10;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
