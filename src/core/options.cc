#include "core/options.h"

#include "compaction/policy/compaction_picker.h"

namespace pmblade {

Status Options::Sanitize() {
  if (env == nullptr) env = PosixEnv();
  if (raw_env == nullptr) raw_env = PosixEnv();
  if (logger == nullptr) logger = NullLogger();
  if (clock == nullptr) clock = SystemClock();
  if (memtable_bytes < 4096) {
    return Status::InvalidArgument("memtable_bytes must be >= 4096");
  }
  if (pm_pool_capacity < (1 << 20)) {
    return Status::InvalidArgument("pm_pool_capacity must be >= 1 MiB");
  }
  if (write_slowdown_watermark <= 0.0 || write_slowdown_watermark > 1.0) {
    return Status::InvalidArgument(
        "write_slowdown_watermark must be in (0, 1]");
  }
  if (num_shards < 1 || num_shards > 128) {
    return Status::InvalidArgument("num_shards must be in [1, 128]");
  }
  for (size_t i = 1; i < partition_boundaries.size(); ++i) {
    if (partition_boundaries[i - 1] >= partition_boundaries[i]) {
      return Status::InvalidArgument(
          "partition_boundaries must be strictly ascending");
    }
  }
  if (memory_budget_bytes != 0) {
    if (memory_budget_bytes < (1 << 20)) {
      return Status::InvalidArgument(
          "memory_budget_bytes must be 0 (arbiter off) or >= 1 MiB");
    }
    if (arbiter_interval_ms == 0) {
      return Status::InvalidArgument("arbiter_interval_ms must be >= 1");
    }
  }
  if (!IsValidCompactionPolicy(compaction_policy)) {
    return Status::InvalidArgument(
        "unknown compaction_policy \"" + compaction_policy +
        "\" (expected leveled, tiered or lazy_leveling)");
  }
  if (compaction_policy != "leveled" && !enable_cost_model) {
    return Status::InvalidArgument(
        "compaction_policy \"" + compaction_policy +
        "\" requires enable_cost_model (the conventional trigger path is "
        "leveled-only)");
  }
  if (compaction_size_ratio < 2 || compaction_size_ratio > 32) {
    return Status::InvalidArgument(
        "compaction_size_ratio must be in [2, 32]");
  }
  if (max_ssd_levels < 1 || max_ssd_levels > 8) {
    return Status::InvalidArgument("max_ssd_levels must be in [1, 8]");
  }
  if (compaction_workers < 1) compaction_workers = 1;
  if (compaction_workers > 64) compaction_workers = 64;
  if (max_subcompactions < 1) max_subcompactions = 1;
  if (max_subcompactions > 64) max_subcompactions = 64;
  if (major.concurrency < 1) major.concurrency = 1;
  if (major.worker_threads < 1) major.worker_threads = 1;
  if (major.max_io_q < 1) major.max_io_q = 1;
  return Status::OK();
}

const char* WritePressureName(WritePressure pressure) {
  switch (pressure) {
    case WritePressure::kNone:
      return "none";
    case WritePressure::kSlowdown:
      return "slowdown";
    case WritePressure::kStall:
      return "stall";
  }
  return "unknown";
}

}  // namespace pmblade
