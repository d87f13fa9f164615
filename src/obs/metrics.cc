#include "obs/metrics.h"

#include <algorithm>

namespace pmblade {
namespace obs {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == MetricKind::kCounter
               ? it->second.counter.get()
               : nullptr;
  }
  Entry entry;
  entry.kind = MetricKind::kCounter;
  entry.counter.reset(new Counter());
  Counter* raw = entry.counter.get();
  entries_.emplace(name, std::move(entry));
  return raw;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == MetricKind::kGauge ? it->second.gauge.get()
                                                 : nullptr;
  }
  Entry entry;
  entry.kind = MetricKind::kGauge;
  entry.gauge.reset(new Gauge());
  Gauge* raw = entry.gauge.get();
  entries_.emplace(name, std::move(entry));
  return raw;
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second.kind == MetricKind::kHistogram
               ? it->second.histogram.get()
               : nullptr;
  }
  Entry entry;
  entry.kind = MetricKind::kHistogram;
  entry.histogram.reset(new HistogramMetric());
  HistogramMetric* raw = entry.histogram.get();
  entries_.emplace(name, std::move(entry));
  return raw;
}

// Register*Callback never destroys previously-created owned instruments:
// callers may have cached their pointers, so instruments live as long as the
// registry. A callback takes precedence over a same-name instrument at
// snapshot time.

void MetricsRegistry::RegisterCounterCallback(const std::string& name,
                                              std::function<uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.kind = MetricKind::kCounter;
  entry.counter_fn = std::move(fn);
  entry.gauge_fn = nullptr;
  entry.histogram_fn = nullptr;
}

void MetricsRegistry::RegisterGaugeCallback(const std::string& name,
                                            std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.kind = MetricKind::kGauge;
  entry.gauge_fn = std::move(fn);
  entry.counter_fn = nullptr;
  entry.histogram_fn = nullptr;
}

void MetricsRegistry::RegisterHistogramCallback(
    const std::string& name, std::function<Histogram()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  entry.kind = MetricKind::kHistogram;
  entry.histogram_fn = std::move(fn);
  entry.counter_fn = nullptr;
  entry.gauge_fn = nullptr;
}

void MetricsRegistry::RegisterSnapshotProvider(ListFn list, ReadFn read) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_.push_back(Provider{std::move(list), std::move(read)});
}

// Callbacks may acquire arbitrary unrelated locks (the DB mutex, the SSD
// model mutex) whose holders in turn call GetCounter(), so Snapshot() and
// Read() copy what they need under mu_ and evaluate after releasing it —
// that keeps the lock graph acyclic. Instruments and entries are never
// removed, so the copied pointers stay valid for the registry's lifetime.
struct MetricsRegistry::Reading {
  explicit Reading(const Entry& entry)
      : counter(entry.counter.get()),
        gauge(entry.gauge.get()),
        histogram(entry.histogram.get()),
        counter_fn(entry.counter_fn),
        gauge_fn(entry.gauge_fn),
        histogram_fn(entry.histogram_fn) {}

  void Evaluate(MetricSample* sample) const {
    switch (sample->kind) {
      case MetricKind::kCounter:
        sample->value = counter_fn ? static_cast<double>(counter_fn())
                                   : static_cast<double>(counter->Value());
        break;
      case MetricKind::kGauge:
        sample->value =
            gauge_fn ? gauge_fn() : static_cast<double>(gauge->Value());
        break;
      case MetricKind::kHistogram:
        sample->hist = histogram_fn ? histogram_fn() : histogram->Snapshot();
        sample->value = static_cast<double>(sample->hist.count());
        break;
    }
  }

  const Counter* counter;
  const Gauge* gauge;
  const HistogramMetric* histogram;
  std::function<uint64_t()> counter_fn;
  std::function<double()> gauge_fn;
  std::function<Histogram()> histogram_fn;
};

MetricsSnapshot MetricsRegistry::Snapshot(uint64_t now_nanos) const {
  MetricsSnapshot snap;
  snap.taken_at_nanos = now_nanos;
  std::vector<Reading> pending;
  std::vector<Provider> providers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    providers = providers_;
    snap.samples.reserve(entries_.size());
    pending.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      MetricSample sample;
      sample.name = name;
      sample.kind = entry.kind;
      snap.samples.push_back(std::move(sample));
      pending.emplace_back(entry);
    }
  }

  for (size_t i = 0; i < pending.size(); ++i) {
    pending[i].Evaluate(&snap.samples[i]);
  }
  if (!providers.empty()) {
    for (const auto& provider : providers) provider.list(&snap.samples);
    // Providers append out of order; restore the sorted-by-name contract.
    // The stable sort keeps an own entry ahead of a provider sample of the
    // same name, so dropping later duplicates lets the own entry shadow it.
    std::stable_sort(snap.samples.begin(), snap.samples.end(),
                     [](const MetricSample& a, const MetricSample& b) {
                       return a.name < b.name;
                     });
    snap.samples.erase(
        std::unique(snap.samples.begin(), snap.samples.end(),
                    [](const MetricSample& a, const MetricSample& b) {
                      return a.name == b.name;
                    }),
        snap.samples.end());
  }
  return snap;
}

bool MetricsRegistry::Read(const std::string& name,
                           MetricSample* sample) const {
  std::vector<Provider> providers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      const Reading reading(it->second);
      sample->name = name;
      sample->kind = it->second.kind;
      lock.unlock();
      reading.Evaluate(sample);
      return true;
    }
    providers = providers_;
  }
  for (const auto& provider : providers) {
    if (provider.read(name, sample)) return true;
  }
  return false;
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace obs
}  // namespace pmblade
