// MetricsRegistry: the engine-wide catalogue of named counters, gauges and
// histograms. Hot paths touch relaxed atomics (Counter/Gauge) or a sharded
// histogram; Snapshot() produces a consistent, name-sorted copy of every
// registered metric that the exporters (obs/exporter.h) render as JSON or
// Prometheus text.
//
// Two registration styles:
//   * Owned instruments — GetCounter/GetGauge/GetHistogram create (or look
//     up) an instrument owned by the registry; callers cache the returned
//     pointer and update it lock-free.
//   * Pull callbacks — Register*Callback attach a function evaluated at
//     Snapshot() time, used to surface pre-existing counters (SsdModel,
//     PmPool) and computed gauges (q_flush, level sizes) without
//     duplicating state.
// The engine statistics (reads by source, writes, flushes, compactions,
// get/put/scan latencies) are owned instruments, recorded through
// DbStatistics (core/statistics.h). Counters are monotonic: a caller that
// measures a phase reads the counter before and after it.
//
// Read() evaluates one metric by name; the engines' numeric properties
// (DB::GetProperty(uint64_t*)) are Read() calls, so the registry is the only
// code that computes a property's value.
//
// Naming convention: dot-separated lowercase paths under the "pmblade."
// root, e.g. "pmblade.reads.memtable", "pmblade.compaction.internal.count",
// "pmblade.io.q_flush". The Prometheus exporter maps '.' and '-' to '_'.

#ifndef PMBLADE_OBS_METRICS_H_
#define PMBLADE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace pmblade {
namespace obs {

class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram instrument backed by ShardedHistogram so concurrent
/// observers do not serialize on one mutex.
class HistogramMetric {
 public:
  void Observe(uint64_t value) { hist_.Add(value); }
  Histogram Snapshot() const { return hist_.Merged(); }

 private:
  ShardedHistogram hist_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counters and gauges
  Histogram hist;      // kind == kHistogram only
};

struct MetricsSnapshot {
  uint64_t taken_at_nanos = 0;
  std::vector<MetricSample> samples;  // sorted by name

  const MetricSample* Find(const std::string& name) const {
    for (const auto& sample : samples) {
      if (sample.name == name) return &sample;
    }
    return nullptr;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Look up or create an owned instrument. The returned pointer is stable
  /// for the registry's lifetime. Returns nullptr if `name` is already
  /// registered with a different kind.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Pull-style metrics evaluated at Snapshot() time. The callback must be
  /// safe to invoke from any thread; it runs WITHOUT the registry lock held,
  /// so it may take unrelated locks (e.g. the DB mutex) freely.
  /// Re-registering an existing name replaces the callback.
  void RegisterCounterCallback(const std::string& name,
                               std::function<uint64_t()> fn);
  void RegisterGaugeCallback(const std::string& name,
                             std::function<double()> fn);
  void RegisterHistogramCallback(const std::string& name,
                                 std::function<Histogram()> fn);

  /// Bulk contributor evaluated at Snapshot() time, after the registry's
  /// own entries: `list` appends arbitrarily many samples in one call, and
  /// `read` evaluates one of those names for Read(), returning false for a
  /// name it does not produce. Used by ShardedDB to splice every shard's
  /// registry (prefixed per shard) plus cross-shard aggregates into the
  /// facade registry without registering thousands of forwarding callbacks.
  /// A name the registry holds itself shadows a provider sample of the same
  /// name, in Snapshot() and Read() alike. Both functions run WITHOUT the
  /// registry lock held, same contract as the per-metric callbacks.
  using ListFn = std::function<void(std::vector<MetricSample>*)>;
  using ReadFn = std::function<bool(const std::string&, MetricSample*)>;
  void RegisterSnapshotProvider(ListFn list, ReadFn read);

  /// Consistent, name-sorted copy of every metric. Callback evaluation
  /// happens after the registry lock is released, so callbacks may take
  /// unrelated mutexes (e.g. the DB mutex) whose holders call GetCounter().
  MetricsSnapshot Snapshot(uint64_t now_nanos = 0) const;

  /// Evaluates the one metric `name` — the same sample Snapshot() would
  /// hold for it (a histogram's `value` is its count) — without evaluating
  /// the rest. Returns false when no entry or provider produces `name`.
  /// Same locking contract as Snapshot(); callbacks may call Read().
  bool Read(const std::string& name, MetricSample* sample) const;

  size_t NumMetrics() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    // Owned instruments (at most one set, matching `kind`).
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    // Pull callbacks (used when the owned instrument is null).
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<Histogram()> histogram_fn;
  };

  struct Provider {
    ListFn list;
    ReadFn read;
  };
  /// An entry's instrument pointers and callback copies, taken under mu_
  /// and evaluated after releasing it.
  struct Reading;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted by name
  std::vector<Provider> providers_;
};

}  // namespace obs
}  // namespace pmblade

#endif  // PMBLADE_OBS_METRICS_H_
