#include "core/statistics.h"

#include <cstdio>

namespace pmblade {

namespace {

constexpr const char* kReadMetrics[kNumReadSources] = {
    "pmblade.reads.memtable", "pmblade.reads.pm_l0", "pmblade.reads.ssd_l1",
    "pmblade.reads.miss"};

/// `name`'s value in `registry`, 0 when no engine registers it.
unsigned long long Count(const obs::MetricsRegistry& registry,
                         const char* name) {
  obs::MetricSample sample;
  return registry.Read(name, &sample)
             ? static_cast<unsigned long long>(sample.value)
             : 0;
}

}  // namespace

DbStatistics::DbStatistics(obs::MetricsRegistry* registry)
    : writes_(registry->GetCounter("pmblade.writes")),
      scans_(registry->GetCounter("pmblade.scans")),
      scan_entries_(registry->GetCounter("pmblade.scan.entries")),
      user_bytes_written_(registry->GetCounter("pmblade.write.user_bytes")),
      flushes_(registry->GetCounter("pmblade.flush.count")),
      internal_compactions_(
          registry->GetCounter("pmblade.compaction.internal.count")),
      internal_compaction_bytes_in_(
          registry->GetCounter("pmblade.compaction.internal.bytes_in")),
      internal_compaction_bytes_out_(
          registry->GetCounter("pmblade.compaction.internal.bytes_out")),
      major_compactions_(
          registry->GetCounter("pmblade.compaction.major.count")),
      major_compaction_bytes_(
          registry->GetCounter("pmblade.compaction.major.bytes")),
      get_latency_(registry->GetHistogram("pmblade.latency.get")),
      put_latency_(registry->GetHistogram("pmblade.latency.put")),
      scan_latency_(registry->GetHistogram("pmblade.latency.scan")) {
  for (int i = 0; i < kNumReadSources; ++i) {
    reads_[i] = registry->GetCounter(kReadMetrics[i]);
  }
}

double PmHitRatio(const obs::MetricsRegistry& registry) {
  const double fast = Count(registry, "pmblade.reads.memtable") +
                      Count(registry, "pmblade.reads.pm_l0");
  const double total = fast + Count(registry, "pmblade.reads.ssd_l1");
  return total == 0 ? 0.0 : fast / total;
}

std::string StatsSummary(const obs::MetricsRegistry& registry) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "reads: mem=%llu pm=%llu ssd=%llu miss=%llu (pm-hit %.1f%%)\n"
           "writes=%llu (%llu B) scans=%llu\n"
           "flushes=%llu internal-compactions=%llu major-compactions=%llu",
           Count(registry, "pmblade.reads.memtable"),
           Count(registry, "pmblade.reads.pm_l0"),
           Count(registry, "pmblade.reads.ssd_l1"),
           Count(registry, "pmblade.reads.miss"),
           PmHitRatio(registry) * 100.0, Count(registry, "pmblade.writes"),
           Count(registry, "pmblade.write.user_bytes"),
           Count(registry, "pmblade.scans"),
           Count(registry, "pmblade.flush.count"),
           Count(registry, "pmblade.compaction.internal.count"),
           Count(registry, "pmblade.compaction.major.count"));
  return buf;
}

}  // namespace pmblade
