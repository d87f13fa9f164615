// DB-level runtime statistics: operation counts, where reads were served
// from (memtable / PM level-0 / SSD), latency histograms, and the traffic
// totals the write-amplification experiments report.
//
// DbStatistics is a recording handle and holds no values: every counter and
// histogram is an instrument owned by the engine's obs::MetricsRegistry,
// bound at construction. So the registry is the one place these values are
// read (snapshots, the exporters, numeric properties, PmHitRatio and
// StatsSummary below), and a sharded engine sums them across shards by the
// same fold as every other metric. Hot-path discipline: counters are relaxed
// atomics and the latency histograms are sharded per thread, so concurrent
// readers and writers never serialize on a statistics mutex.

#ifndef PMBLADE_CORE_STATISTICS_H_
#define PMBLADE_CORE_STATISTICS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace pmblade {

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
  /// Creates (or looks up) the instruments in `registry`, which must outlive
  /// this handle. Metric names live under "pmblade.reads.*",
  /// "pmblade.writes", "pmblade.write.user_bytes", "pmblade.scan*",
  /// "pmblade.flush.count", "pmblade.compaction.{internal,major}.*" and
  /// "pmblade.latency.*".
  explicit DbStatistics(obs::MetricsRegistry* registry);

  void RecordRead(ReadSource source, uint64_t latency_nanos) {
    reads_[static_cast<int>(source)]->Inc();
    get_latency_->Observe(latency_nanos);
  }
  void RecordWrite(uint64_t bytes, uint64_t latency_nanos) {
    user_bytes_written_->Inc(bytes);
    writes_->Inc();
    put_latency_->Observe(latency_nanos);
  }
  /// User bytes that reach the engine without a Write call of their own
  /// (a cross-shard batch's sub-batch at commit): no write count, no
  /// latency sample.
  void AddUserBytes(uint64_t bytes) { user_bytes_written_->Inc(bytes); }
  void RecordScan(uint64_t entries, uint64_t latency_nanos) {
    scans_->Inc();
    scan_entries_->Inc(entries);
    scan_latency_->Observe(latency_nanos);
  }

  void AddFlush() { flushes_->Inc(); }
  void AddInternalCompaction(uint64_t bytes_in, uint64_t bytes_out) {
    internal_compactions_->Inc();
    internal_compaction_bytes_in_->Inc(bytes_in);
    internal_compaction_bytes_out_->Inc(bytes_out);
  }
  /// `bytes_written` is the SSD bytes the compaction wrote: the numerator
  /// of the write-amplification experiments (user bytes are the
  /// denominator).
  void AddMajorCompaction(uint64_t bytes_written) {
    major_compactions_->Inc();
    major_compaction_bytes_->Inc(bytes_written);
  }

 private:
  obs::Counter* reads_[kNumReadSources];
  obs::Counter* writes_;
  obs::Counter* scans_;
  obs::Counter* scan_entries_;
  obs::Counter* user_bytes_written_;
  obs::Counter* flushes_;
  obs::Counter* internal_compactions_;
  obs::Counter* internal_compaction_bytes_in_;
  obs::Counter* internal_compaction_bytes_out_;
  obs::Counter* major_compactions_;
  obs::Counter* major_compaction_bytes_;
  obs::HistogramMetric* get_latency_;
  obs::HistogramMetric* put_latency_;
  obs::HistogramMetric* scan_latency_;
};

/// Fraction of successful reads answered without touching the SSD, from
/// `registry`'s "pmblade.reads.*" counters; 0 before any such read.
double PmHitRatio(const obs::MetricsRegistry& registry);

/// The human-readable "pmblade.stats" summary of `registry`: reads by
/// source with the PM hit ratio, writes, user bytes and scans, flushes and
/// compactions.
std::string StatsSummary(const obs::MetricsRegistry& registry);

}  // namespace pmblade

#endif  // PMBLADE_CORE_STATISTICS_H_
