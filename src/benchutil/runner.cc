#include "benchutil/runner.h"

#include "core/properties.h"
#include "core/statistics.h"

namespace pmblade {
namespace bench {

const char* EngineConfigName(EngineConfig config) {
  switch (config) {
    case EngineConfig::kPmBlade: return "PMBlade";
    case EngineConfig::kPmBladePm: return "PMBlade-PM";
    case EngineConfig::kPmBladeSsd: return "PMBlade-SSD";
    case EngineConfig::kPmbP: return "PMB-P";
    case EngineConfig::kPmbPI: return "PMB-PI";
    case EngineConfig::kPmbPIC: return "PMB-PIC";
    case EngineConfig::kRocksStyle: return "RocksDB";
    case EngineConfig::kMatrixKvSmall: return "MatrixKV-8";
    case EngineConfig::kMatrixKvLarge: return "MatrixKV-80";
  }
  return "?";
}

BenchEnv::BenchEnv(const BenchEnvOptions& options) : options_(options) {
  SsdModelOptions mopts;
  mopts.inject_latency = options_.inject_ssd_latency;
  model_.reset(new SsdModel(mopts));
  sim_env_.reset(new SimEnv(PosixEnv(), model_.get()));
  PosixEnv()->RemoveDirRecursively(options_.root);
  PosixEnv()->CreateDir(options_.root);
}

BenchEnv::~BenchEnv() { CloseAndCleanup(); }

void BenchEnv::CloseAndCleanup() {
  db_.reset();
  baseline_.reset();
  engine_ = nullptr;
  PosixEnv()->RemoveDirRecursively(options_.root);
}

Status BenchEnv::OpenEngine(EngineConfig config, KvEngine** engine) {
  CloseAndCleanup();
  PMBLADE_RETURN_IF_ERROR(PosixEnv()->CreateDir(options_.root));
  config_ = config;
  model_->ResetStats();
  const std::string dbname = options_.root + "/db";

  switch (config) {
    case EngineConfig::kPmBlade:
    case EngineConfig::kPmBladePm:
    case EngineConfig::kPmBladeSsd:
    case EngineConfig::kPmbP:
    case EngineConfig::kPmbPI:
    case EngineConfig::kPmbPIC: {
      Options opts;
      opts.env = sim_env_.get();
      opts.ssd_model = model_.get();
      opts.wal_in_pm = options_.wal_in_pm;
      opts.memtable_bytes = options_.memtable_bytes;
      opts.pm_pool_capacity = options_.pm_pool_capacity;
      opts.pm_latency.inject_latency = options_.inject_pm_latency;
      opts.partition_boundaries = options_.partition_boundaries;
      opts.cost.tau_m = options_.l0_budget_large;
      opts.cost.tau_t = options_.l0_budget_large / 2;
      opts.cost.tau_w = options_.memtable_bytes * 4;
      opts.internal_table_target_bytes = options_.memtable_bytes * 4;
      opts.block_cache_bytes = options_.block_cache_bytes;
      opts.bloom_bits_per_key = options_.bloom_bits_per_key;
      opts.memory_budget_bytes = options_.memory_budget_bytes;
      opts.arbiter_interval_ms = options_.arbiter_interval_ms;
      opts.compaction_workers = options_.compaction_workers;
      opts.max_subcompactions = options_.max_subcompactions;
      // Keep the compactor's merge pool at least as wide as the slice
      // fan-out, or the extra slices would just queue behind each other.
      if (options_.max_subcompactions > opts.major.worker_threads) {
        opts.major.worker_threads = options_.max_subcompactions;
      }
      opts.num_shards = options_.num_shards;
      opts.compaction_policy = options_.compaction_policy;
      opts.compaction_size_ratio = options_.compaction_size_ratio;
      opts.max_ssd_levels = options_.max_ssd_levels;

      switch (config) {
        case EngineConfig::kPmBlade:
          opts.l0_layout = L0Layout::kPmTable;
          opts.enable_cost_model = true;
          opts.major.engine = CompactionEngine::kPmBlade;
          break;
        case EngineConfig::kPmBladePm:
          // Large PM level-0 but the conventional compaction policy: whole
          // level-0 moves down at a table-count threshold.
          opts.l0_layout = L0Layout::kPmTable;
          opts.enable_cost_model = false;
          opts.l0_table_trigger = 8;
          opts.major.engine = CompactionEngine::kThread;
          break;
        case EngineConfig::kPmBladeSsd:
          opts.l0_layout = L0Layout::kSstable;
          opts.enable_cost_model = false;
          opts.l0_table_trigger = 4;
          opts.major.engine = CompactionEngine::kThread;
          break;
        case EngineConfig::kPmbP:
          opts.l0_layout = L0Layout::kArrayTable;
          opts.enable_cost_model = false;
          opts.l0_table_trigger = 8;
          opts.major.engine = CompactionEngine::kThread;
          break;
        case EngineConfig::kPmbPI:
          opts.l0_layout = L0Layout::kArrayTable;
          opts.enable_cost_model = true;
          opts.major.engine = CompactionEngine::kThread;
          break;
        case EngineConfig::kPmbPIC:
          opts.l0_layout = L0Layout::kPmTable;
          opts.enable_cost_model = true;
          opts.major.engine = CompactionEngine::kThread;
          break;
        default:
          break;
      }
      PMBLADE_RETURN_IF_ERROR(DB::Open(opts, dbname, &db_));
      engine_ = db_.get();
      break;
    }

    case EngineConfig::kRocksStyle:
    case EngineConfig::kMatrixKvSmall:
    case EngineConfig::kMatrixKvLarge: {
      BaselineOptions opts;
      opts.env = sim_env_.get();
      opts.memtable_bytes = options_.memtable_bytes;
      if (config == EngineConfig::kMatrixKvSmall) {
        opts.pm_budget_bytes = options_.l0_budget_small;
      } else if (config == EngineConfig::kMatrixKvLarge) {
        opts.pm_budget_bytes = options_.l0_budget_large;
      }
      opts.pm_pool_capacity = options_.pm_pool_capacity;
      opts.pm_latency.inject_latency = options_.inject_pm_latency;
      opts.levels.level1_target_bytes = options_.memtable_bytes * 4;
      opts.levels.target_file_bytes = options_.memtable_bytes;
      opts.block_cache_bytes = options_.block_cache_bytes;
      PMBLADE_RETURN_IF_ERROR(BaselineDb::Open(opts, dbname, &baseline_));
      engine_ = baseline_.get();
      break;
    }
  }
  *engine = engine_;
  return Status::OK();
}

double BenchEnv::PmHitRatio() const {
  const obs::MetricsRegistry* registry = metrics_registry();
  return registry != nullptr ? pmblade::PmHitRatio(*registry) : 0.0;
}

uint64_t BenchEnv::Metric(const std::string& name) const {
  const obs::MetricsRegistry* registry = metrics_registry();
  uint64_t value = 0;
  return registry != nullptr && ReadNumericProperty(*registry, name, &value)
             ? value
             : 0;
}

Status BenchEnv::FlushEngine() {
  return engine_ != nullptr ? engine_->Flush() : Status::OK();
}

}  // namespace bench
}  // namespace pmblade
