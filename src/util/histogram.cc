#include "util/histogram.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace pmblade {

namespace {
// Generates bucket limits: 1,2,3,...,10, then 12,14,...  roughly geometric
// with ratio ~1.2, ending above 1e13 (covers ns-scale latencies up to hours).
std::vector<uint64_t> MakeLimits() {
  std::vector<uint64_t> limits;
  uint64_t v = 1;
  while (limits.size() < 154) {
    limits.push_back(v);
    uint64_t next = v + std::max<uint64_t>(1, v / 5);
    v = next;
  }
  return limits;
}
const std::vector<uint64_t>& Limits() {
  static const std::vector<uint64_t> kLimits = MakeLimits();
  return kLimits;
}
}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) { Clear(); }

void Histogram::Clear() {
  count_ = 0;
  sum_ = 0.0;
  min_ = UINT64_MAX;
  max_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

int Histogram::BucketFor(uint64_t value) const {
  const auto& limits = Limits();
  auto it = std::upper_bound(limits.begin(), limits.end(), value);
  int idx = static_cast<int>(it - limits.begin());
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  return idx;
}

void Histogram::Add(uint64_t value) {
  ++count_;
  sum_ += static_cast<double>(value);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  buckets_[BucketFor(value)]++;
}

void Histogram::Merge(const Histogram& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto& limits = Limits();
  double threshold = count_ * (p / 100.0);
  double cumulative = 0.0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= threshold) {
      uint64_t lo = (i == 0) ? 0 : limits[i - 1];
      uint64_t hi = limits[i];
      // Interpolate within the bucket.
      double left = cumulative - buckets_[i];
      double frac = buckets_[i] > 0 ? (threshold - left) / buckets_[i] : 0.0;
      double v = lo + frac * (hi - lo);
      if (v < min_) v = static_cast<double>(min_);
      if (v > max_) v = static_cast<double>(max_);
      return v;
    }
  }
  return static_cast<double>(max_);
}

uint64_t Histogram::BucketLimit(int index) {
  const auto& limits = Limits();
  if (index < 0) return 0;
  if (index >= kNumBuckets) index = kNumBuckets - 1;
  return limits[index];
}

std::string Histogram::ToJson() const {
  std::string out;
  out.reserve(256);
  char buf[128];
  snprintf(buf, sizeof(buf),
           "{\"count\":%llu,\"sum\":%.17g,\"min\":%llu,\"max\":%llu,"
           "\"avg\":%.17g",
           static_cast<unsigned long long>(count_), sum_,
           static_cast<unsigned long long>(min()),
           static_cast<unsigned long long>(max_), Average());
  out += buf;
  snprintf(buf, sizeof(buf),
           ",\"p50\":%.17g,\"p95\":%.17g,\"p99\":%.17g,\"p999\":%.17g",
           Percentile(50), Percentile(95), Percentile(99), Percentile(99.9));
  out += buf;
  out += ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    snprintf(buf, sizeof(buf), "%s[%llu,%llu]", first ? "" : ",",
             static_cast<unsigned long long>(BucketLimit(i)),
             static_cast<unsigned long long>(buckets_[i]));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

std::string Histogram::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "count=%llu avg=%.1f p50=%.1f p95=%.1f p99=%.1f p999=%.1f max=%llu",
           static_cast<unsigned long long>(count_), Average(),
           Percentile(50), Percentile(95), Percentile(99), Percentile(99.9),
           static_cast<unsigned long long>(max_));
  return buf;
}

// ---------------------------------------------------------------------------
// ShardedHistogram
// ---------------------------------------------------------------------------

ShardedHistogram::ShardedHistogram(int num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards),
      shards_(new Shard[num_shards_]) {}

size_t ShardedHistogram::ThreadSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void ShardedHistogram::Add(uint64_t value) {
  Shard& shard = shards_[ThreadSlot() % num_shards_];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.hist.Add(value);
}

Histogram ShardedHistogram::Merged() const {
  Histogram merged;
  for (int i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    merged.Merge(shards_[i].hist);
  }
  return merged;
}

}  // namespace pmblade
