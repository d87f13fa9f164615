// Latency histogram with exponentially sized buckets. Collects count / sum /
// min / max plus percentile estimates (p50, p95, p99, p99.9) — the statistics
// the paper reports in Figures 7, 9, 10 and 11.

#ifndef PMBLADE_UTIL_HISTOGRAM_H_
#define PMBLADE_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmblade {

/// Single-threaded histogram of non-negative values (typically latencies in
/// nanoseconds). Callers that share a histogram across threads must wrap it
/// with their own lock, or merge per-thread histograms at the end.
class Histogram {
 public:
  Histogram();

  void Clear();
  void Add(uint64_t value);
  /// Merge another histogram's samples into this one.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Average() const { return count_ ? sum_ / count_ : 0.0; }

  /// Estimated value at percentile p in [0, 100], interpolated within the
  /// containing bucket.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  /// One-line summary "count=... avg=... p50=... p99=... p999=... max=...".
  std::string ToString() const;

  /// JSON object: {"count":..,"sum":..,"min":..,"max":..,"avg":..,"p50":..,
  /// "p95":..,"p99":..,"p999":..,"buckets":[[upper_bound,count],...]} with
  /// only the non-empty buckets listed.
  std::string ToJson() const;

  static constexpr int kNumBuckets = 154;

  /// Inclusive upper bound of bucket `index` (the exporters need the bucket
  /// boundaries to emit cumulative Prometheus buckets).
  static uint64_t BucketLimit(int index);
  uint64_t bucket_count(int index) const { return buckets_[index]; }

 private:
  int BucketFor(uint64_t value) const;

  uint64_t count_;
  double sum_;
  uint64_t min_;
  uint64_t max_;
  std::vector<uint64_t> buckets_;
};

/// A histogram striped over several independently locked shards so that
/// concurrent writers on different threads do not serialize on one mutex.
/// Each thread hashes to a fixed shard; Merged() combines all shards into a
/// point-in-time copy. Replaces the "global mutex + shared Histogram"
/// pattern on the DB read/write hot paths.
class ShardedHistogram {
 public:
  static constexpr int kDefaultShards = 16;

  explicit ShardedHistogram(int num_shards = kDefaultShards);

  /// Thread-safe; takes only the calling thread's shard lock.
  void Add(uint64_t value);
  /// Point-in-time merge of every shard.
  Histogram Merged() const;

  int num_shards() const { return num_shards_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    Histogram hist;
  };

  static size_t ThreadSlot();

  int num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace pmblade

#endif  // PMBLADE_UTIL_HISTOGRAM_H_
