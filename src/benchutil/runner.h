// BenchEnv: shared device simulators + engine factory for the benchmark
// harnesses. Centralizes the paper's system configurations so every bench
// builds engines the same way:
//
//   PMBlade       — PM table level-0, internal compaction, cost models,
//                   coroutine major compaction        (all techniques)
//   PMBlade-PM    — PM level-0 but the conventional whole-level compaction
//                   policy (no internal compaction, no cost models)
//   PMBlade-SSD   — level-0 on the SSD (no PM at all)
//   PMB-P         — PM level-0 with array tables, no internal compaction
//   PMB-PI        — + internal compaction & cost models (array tables)
//   PMB-PIC       — + compressed PM tables (thread-based major compaction)
//   RocksDB-style — the conventional leveled LSM baseline
//   MatrixKV      — matrix-container baseline (small or large PM budget)

#ifndef PMBLADE_BENCHUTIL_RUNNER_H_
#define PMBLADE_BENCHUTIL_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/leveled_db.h"
#include "baseline/matrixkv_db.h"
#include "core/db.h"
#include "env/sim_env.h"

namespace pmblade {
namespace bench {

enum class EngineConfig {
  kPmBlade,
  kPmBladePm,
  kPmBladeSsd,
  kPmbP,
  kPmbPI,
  kPmbPIC,
  kRocksStyle,
  kMatrixKvSmall,
  kMatrixKvLarge,
};

const char* EngineConfigName(EngineConfig config);

struct BenchEnvOptions {
  std::string root;  // working directory for DB files + pools
  bool inject_ssd_latency = true;
  bool inject_pm_latency = true;
  uint64_t pm_pool_capacity = 256ull << 20;
  size_t memtable_bytes = 1 << 20;
  /// Level-0 budget sizing for the PM-Blade configs (tau_m / tau_t) and the
  /// MatrixKV budgets. "large" mimics the 80 GB configs, "small" the 8 GB
  /// MatrixKV default, at bench scale.
  uint64_t l0_budget_large = 48ull << 20;
  uint64_t l0_budget_small = 5ull << 20;
  /// DRAM block cache for SSD-resident tables. Scaled down with the bench
  /// data sizes (the paper's datasets dwarf its cache; a bench-sized cache
  /// must not swallow the whole working set or SSD configs never touch the
  /// device).
  size_t block_cache_bytes = 256 << 10;
  /// Bloom bits per key for SSTable filter blocks and the PM tables' DRAM
  /// whole-table filters; <= 0 disables filters (the no-filter baseline of
  /// `benchmark_kv --read_skew`).
  int bloom_bits_per_key = 10;
  /// When nonzero, the PM-Blade configs run the MemoryArbiter over this
  /// budget (memtable quota / block cache / keep-set τ_t).
  uint64_t memory_budget_bytes = 0;
  uint64_t arbiter_interval_ms = 250;
  /// Compaction scheduler pool size and per-victim key-range subcompaction
  /// fan-out for the PM-Blade configs (1/1 = the historical single-worker,
  /// one-slice pipeline). Swept by `benchmark_kv --compaction_parallel`.
  int compaction_workers = 1;
  int max_subcompactions = 1;
  /// SSD compaction shape for the PM-Blade configs: "leveled" (default),
  /// "tiered" or "lazy_leveling" (see Options::compaction_policy). Swept by
  /// `benchmark_kv --benchmarks=policy_sweep`. Non-leveled values make the
  /// conventional-policy config (PMBlade-PM, leveled-only) fail to open;
  /// the baseline engines ignore it.
  std::string compaction_policy = "leveled";
  uint32_t compaction_size_ratio = 4;
  uint32_t max_ssd_levels = 3;
  /// Shard count for the PM-Blade configs (1 = the classic single engine;
  /// N > 1 opens a ShardedDB). Per-shard knobs (memtable_bytes,
  /// pm_pool_capacity, the cost budgets) apply to EACH shard. Ignored by
  /// the baseline engines.
  uint32_t num_shards = 1;
  /// WAL device for the PM-Blade configs (Options::wal_in_pm). Off: the
  /// paper's engines log to the SSD, and the figures reproduce that.
  bool wal_in_pm = false;
  std::vector<std::string> partition_boundaries;
};

/// Owns one SSD model + SimEnv shared by the engine under test, plus the
/// currently open engine. Construct one per configuration run.
class BenchEnv {
 public:
  explicit BenchEnv(const BenchEnvOptions& options);
  ~BenchEnv();

  /// Destroys any previous state under root and opens a fresh engine.
  Status OpenEngine(EngineConfig config, KvEngine** engine);

  /// Total bytes written to the simulated SSD since the engine opened.
  uint64_t SsdBytesWritten() const { return model_->bytes_written(); }
  /// Total bytes written to PM (0 for PM-less configs).
  uint64_t PmBytesWritten() const { return Metric("pmblade.pm.bytes_written"); }
  /// User payload bytes accepted by the engine.
  uint64_t UserBytesWritten() const {
    return Metric("pmblade.write.user_bytes");
  }
  /// Successful reads served without the SSD, as a fraction of all
  /// successful reads (see pmblade::PmHitRatio).
  double PmHitRatio() const;
  /// The open engine's metric `name` (core/properties.h naming); 0 when no
  /// engine is open or the engine has no such metric. The three engine
  /// families register their statistics under the same names.
  uint64_t Metric(const std::string& name) const;
  /// The open engine's metrics registry; nullptr when none is open.
  const obs::MetricsRegistry* metrics_registry() const {
    return engine_ != nullptr ? engine_->metrics_registry() : nullptr;
  }

  SsdModel* ssd_model() { return model_.get(); }
  SimEnv* sim_env() { return sim_env_.get(); }
  DB* pmblade_db() { return db_.get(); }
  MatrixKvDb* matrixkv_db() { return matrix_.get(); }
  LeveledDb* leveled_db() { return leveled_.get(); }
  EngineConfig config() const { return config_; }

  /// Benches that reopen the engine per measurement point (write_scaling,
  /// compaction_parallel, ...) may tweak these between OpenEngine calls.
  /// Takes effect on the next OpenEngine.
  BenchEnvOptions* mutable_options() { return &options_; }

  /// Forces everything down to its resting place (flush; engines compact on
  /// their own policies).
  Status FlushEngine();

 private:
  void CloseAndCleanup();

  BenchEnvOptions options_;
  std::unique_ptr<SsdModel> model_;
  std::unique_ptr<SimEnv> sim_env_;
  EngineConfig config_ = EngineConfig::kPmBlade;

  std::unique_ptr<DB> db_;
  std::unique_ptr<MatrixKvDb> matrix_;
  std::unique_ptr<LeveledDb> leveled_;
  KvEngine* engine_ = nullptr;
};

}  // namespace bench
}  // namespace pmblade

#endif  // PMBLADE_BENCHUTIL_RUNNER_H_
