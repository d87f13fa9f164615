// DB-level runtime statistics: operation counts, where reads were served
// from (memtable / PM level-0 / SSD), latency histograms, and the traffic
// totals the write-amplification experiments report.
//
// Hot-path discipline: counters are relaxed atomics and the latency
// histograms are sharded per thread (ShardedHistogram), so concurrent
// readers/writers never serialize on a single statistics mutex. The whole
// set registers into an obs::MetricsRegistry (RegisterWith) so the
// observability exporters see these counters without duplicated state.

#ifndef PMBLADE_CORE_STATISTICS_H_
#define PMBLADE_CORE_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/histogram.h"

namespace pmblade {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Which layer answered a read.
enum class ReadSource {
  kMemtable = 0,
  kPmLevel0 = 1,
  kSsdLevel1 = 2,
  kNotFound = 3,
};
constexpr int kNumReadSources = 4;

class DbStatistics {
 public:
  void RecordRead(ReadSource source, uint64_t latency_nanos) {
    reads_by_source_[static_cast<int>(source)].fetch_add(
        1, std::memory_order_relaxed);
    get_latency_.Add(latency_nanos);
  }
  void RecordWrite(uint64_t bytes, uint64_t latency_nanos) {
    user_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    writes_.fetch_add(1, std::memory_order_relaxed);
    put_latency_.Add(latency_nanos);
  }
  /// User bytes that reach the engine without a Write call of their own
  /// (a cross-shard batch's sub-batch at commit): no write count, no
  /// latency sample.
  void AddUserBytes(uint64_t bytes) {
    user_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordScan(uint64_t entries, uint64_t latency_nanos) {
    scans_.fetch_add(1, std::memory_order_relaxed);
    scan_entries_.fetch_add(entries, std::memory_order_relaxed);
    scan_latency_.Add(latency_nanos);
  }

  void AddFlush() { flushes_.fetch_add(1, std::memory_order_relaxed); }
  void AddInternalCompaction(uint64_t bytes_in, uint64_t bytes_out) {
    internal_compactions_.fetch_add(1, std::memory_order_relaxed);
    internal_compaction_bytes_in_.fetch_add(bytes_in,
                                            std::memory_order_relaxed);
    internal_compaction_bytes_out_.fetch_add(bytes_out,
                                             std::memory_order_relaxed);
  }
  void AddMajorCompaction(uint64_t bytes_written) {
    major_compactions_.fetch_add(1, std::memory_order_relaxed);
    major_compaction_bytes_.fetch_add(bytes_written,
                                      std::memory_order_relaxed);
  }

  uint64_t reads(ReadSource source) const {
    return reads_by_source_[static_cast<int>(source)].load();
  }
  uint64_t total_reads() const {
    uint64_t total = 0;
    for (const auto& counter : reads_by_source_) total += counter.load();
    return total;
  }
  /// Fraction of successful reads answered without touching the SSD.
  double PmHitRatio() const {
    uint64_t fast = reads(ReadSource::kMemtable) + reads(ReadSource::kPmLevel0);
    uint64_t slow = reads(ReadSource::kSsdLevel1);
    uint64_t total = fast + slow;
    return total == 0 ? 0.0 : static_cast<double>(fast) / total;
  }

  uint64_t writes() const { return writes_.load(); }
  uint64_t user_bytes_written() const { return user_bytes_written_.load(); }
  uint64_t flushes() const { return flushes_.load(); }
  uint64_t internal_compactions() const { return internal_compactions_.load(); }
  uint64_t major_compactions() const { return major_compactions_.load(); }
  /// Cumulative SSD bytes written by major compactions — the numerator of
  /// the write-amplification experiments (user_bytes_written() is the
  /// denominator).
  uint64_t major_compaction_bytes() const {
    return major_compaction_bytes_.load();
  }
  uint64_t scans() const { return scans_.load(); }

  Histogram GetLatencyHistogram() const { return get_latency_.Merged(); }
  Histogram PutLatencyHistogram() const { return put_latency_.Merged(); }
  Histogram ScanLatencyHistogram() const { return scan_latency_.Merged(); }

  /// Registers every counter and histogram with `registry` (pull
  /// callbacks; no state is duplicated). Metric names live under
  /// "pmblade.reads.*", "pmblade.writes", "pmblade.flush.*",
  /// "pmblade.compaction.*" and "pmblade.latency.*".
  void RegisterWith(obs::MetricsRegistry* registry);

  /// Adds `other`'s counters and latency samples into this object
  /// (ShardedDB's cross-shard aggregation: Reset() then AddFrom each
  /// shard). Reads `other` with relaxed atomics — the result is a
  /// statistically consistent snapshot, not a linearizable one.
  void AddFrom(const DbStatistics& other);

  void Reset();
  std::string ToString() const;

 private:
  std::atomic<uint64_t> reads_by_source_[kNumReadSources] = {};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> scan_entries_{0};
  std::atomic<uint64_t> user_bytes_written_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> internal_compactions_{0};
  std::atomic<uint64_t> internal_compaction_bytes_in_{0};
  std::atomic<uint64_t> internal_compaction_bytes_out_{0};
  std::atomic<uint64_t> major_compactions_{0};
  std::atomic<uint64_t> major_compaction_bytes_{0};

  ShardedHistogram get_latency_;
  ShardedHistogram put_latency_;
  ShardedHistogram scan_latency_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_STATISTICS_H_
