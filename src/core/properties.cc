#include "core/properties.h"

#include <algorithm>

namespace pmblade {

const std::vector<PropertyAlias>& PropertyAliases() {
  static const std::vector<PropertyAlias> kAliases = {
      // Write pipeline.
      {"pmblade.write-pressure", "pmblade.write.pressure"},
      {"pmblade.wal-syncs", "pmblade.wal.syncs"},
      {"pmblade.write-groups", "pmblade.write.groups"},
      {"pmblade.write-group-writes", "pmblade.write.group_writes"},
      {"pmblade.write-slowdowns", "pmblade.write.slowdowns"},
      {"pmblade.write-stalls", "pmblade.write.stalls"},
      {"pmblade.write-stall-nanos", "pmblade.write.stall_nanos"},
      {"pmblade.bg-flushes", "pmblade.flush.bg_flushes"},
      {"pmblade.memtable-limit", "pmblade.memtable.limit"},
      // Two-phase commit and snapshots.
      {"pmblade.txn-prepared", "pmblade.txn.prepared"},
      {"pmblade.txn-committed", "pmblade.txn.committed"},
      {"pmblade.txn-rolled-back", "pmblade.txn.rolled_back"},
      {"pmblade.txn-pending", "pmblade.txn.pending"},
      {"pmblade.txn-retained", "pmblade.txn.retained"},
      {"pmblade.txn-in-doubt", "pmblade.txn.in_doubt"},
      {"pmblade.txn-resolved-commit", "pmblade.txn.resolved_commit"},
      {"pmblade.txn-resolved-rollback", "pmblade.txn.resolved_rollback"},
      {"pmblade.open-snapshots", "pmblade.snapshots.open"},
      // Compaction scheduler and executor.
      {"pmblade.compactions-completed", "pmblade.compaction.sched.completed"},
      {"pmblade.compactions-failed", "pmblade.compaction.sched.failed"},
      {"pmblade.compaction-retries", "pmblade.compaction.sched.retries"},
      {"pmblade.compaction-queue-depth", "pmblade.compaction.queue_depth"},
      {"pmblade.compaction-workers", "pmblade.compaction.workers"},
      {"pmblade.compaction-active", "pmblade.compaction.active"},
      {"pmblade.compaction-subcompactions",
       "pmblade.compaction.subcompactions"},
      {"pmblade.compaction-major-wall-nanos",
       "pmblade.compaction.major.wall_nanos"},
      {"pmblade.file-gc-failures", "pmblade.gc.remove_failures"},
      // Read path and memory.
      {"pmblade.bloom-checks", "pmblade.bloom.checks"},
      {"pmblade.bloom-negatives", "pmblade.bloom.negatives"},
      {"pmblade.bloom-false-positives", "pmblade.bloom.false_positives"},
      {"pmblade.blockcache-charge", "pmblade.blockcache.charge"},
      {"pmblade.blockcache-capacity", "pmblade.blockcache.capacity"},
      {"pmblade.mem-rebalances", "pmblade.mem.rebalances"},
      // Space and LSM shape. "l1-bytes" is the historical name of the whole
      // SSD run stack (every level), as is "ssd-bytes".
      {"pmblade.pm-bytes-written", "pmblade.pm.bytes_written"},
      {"pmblade.pm-used-bytes", "pmblade.pm.used_bytes"},
      {"pmblade.ssd-user-bytes-written", "pmblade.write.user_bytes"},
      {"pmblade.ssd-bytes-written", "pmblade.compaction.major.bytes"},
      {"pmblade.l0-bytes", "pmblade.lsm.l0_bytes"},
      {"pmblade.l1-bytes", "pmblade.lsm.l1_bytes"},
      {"pmblade.ssd-bytes", "pmblade.lsm.l1_bytes"},
      {"pmblade.num-ssd-runs", "pmblade.lsm.ssd_runs"},
      {"pmblade.max-ssd-level", "pmblade.lsm.max_ssd_level"},
      {"pmblade.num-partitions", "pmblade.lsm.num_partitions"},
      {"pmblade.num-unsorted-tables", "pmblade.lsm.unsorted_tables"},
      {"pmblade.num-sorted-tables", "pmblade.lsm.sorted_tables"},
      {"pmblade.num-shards", "pmblade.shards"},
  };
  return kAliases;
}

bool ReadNumericProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t* value) {
  const std::vector<PropertyAlias>& aliases = PropertyAliases();
  auto alias = std::find_if(
      aliases.begin(), aliases.end(),
      [&property](const PropertyAlias& a) { return property == a.property; });
  obs::MetricSample sample;
  if (!registry.Read(alias != aliases.end() ? alias->metric : property,
                     &sample)) {
    return false;
  }
  // The cast truncates; NaN and negative gauges read as 0, and the clamp
  // keeps an out-of-range double from overflowing the conversion.
  *value = sample.value > 0
               ? static_cast<uint64_t>(std::min(sample.value, 0x1p63))
               : 0;
  return true;
}

}  // namespace pmblade
