// BaselineDb: the comparison engines the paper measures PM-Blade against,
// as one engine over LeveledStore. A DRAM memtable flushes into level-0,
// level-0 moves down into the leveled SSD store (L1..L6), and reads search
// memtable, level-0 (newest first) and the levels. Where level-0 lives
// selects the engine:
//
//   * pm_budget_bytes == 0 — "RocksDB", the conventional DRAM-SSD leveled
//     LSM: level-0 is whole-memtable SSTables on the SSD, and all of it is
//     merged into L1 at kL0FileTrigger files (RocksDB's default of 4). No
//     persistent memory anywhere.
//   * pm_budget_bytes > 0 — "MatrixKV" [9]: level-0 is a small PM "matrix
//     container" whose rows are array tables; while the rows exceed the
//     budget, a column compaction merges the oldest 1/kColumns of the bytes
//     into L1. Reads search the rows newest first (cross-hint search is
//     approximated by the per-row binary search of the array layout).
//
// Simplification (documented in DESIGN.md): a MatrixKV "column" is the
// oldest rows covering ~1/kColumns of the container's bytes, compacted
// fully into the leveled store. This keeps the fine-grained-compaction and
// no-retention behaviour without MatrixKV's intra-row paging.

#ifndef PMBLADE_BASELINE_BASELINE_DB_H_
#define PMBLADE_BASELINE_BASELINE_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baseline/leveled_store.h"
#include "core/kv_engine.h"
#include "core/statistics.h"
#include "memtable/skiplist_memtable.h"
#include "memtable/wal.h"
#include "memtable/write_batch.h"
#include "pm/pm_pool.h"
#include "sstable/block_cache.h"
#include "util/bloom.h"

namespace pmblade {

struct BaselineOptions {
  Env* env = nullptr;  // typically a SimEnv; defaults to PosixEnv()
  Clock* clock = nullptr;
  size_t memtable_bytes = 4 << 20;
  /// Where level-0 lives: 0 puts it on the SSD ("RocksDB"); otherwise it is
  /// a PM matrix container of this many bytes ("MatrixKV"; the paper's
  /// default is 8 GB, and the benches also run an 80 GB-equivalent).
  uint64_t pm_budget_bytes = 0;
  /// The PM pool ("<dbname>/pool.pm") when pm_budget_bytes > 0.
  uint64_t pm_pool_capacity = 64ull << 20;
  PmLatencyOptions pm_latency;
  LeveledStoreOptions levels;
  size_t block_cache_bytes = 8 << 20;
};

class BaselineDb final : public KvEngine {
 public:
  /// Level-0 file count that merges all of an SSD level-0 into L1.
  static constexpr size_t kL0FileTrigger = 4;
  /// A column compaction moves ~1/kColumns of a PM level-0's bytes.
  static constexpr uint64_t kColumns = 8;

  static Status Open(const BaselineOptions& options, const std::string& dbname,
                     std::unique_ptr<BaselineDb>* db);
  ~BaselineDb() override;

  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value) override;
  Iterator* NewScanIterator() override;
  Status Flush() override;

  /// Flushes, then moves all of level-0 down into the levels (bench
  /// convenience), by the same eviction steps a full level-0 takes.
  Status CompactAll();

  obs::MetricsRegistry* metrics_registry() override { return &metrics_; }
  size_t l0_tables() const { return l0_.size(); }
  uint64_t l0_bytes() const;
  const LeveledStore& store() const { return *store_; }

 private:
  BaselineDb(const BaselineOptions& options, const std::string& dbname);
  Status Init();
  Status Write(WriteBatch* batch);
  Status FlushLocked();
  /// Moves the oldest level-0 tables into the leveled store: all of them
  /// on the SSD, ~1/kColumns of the bytes on PM.
  Status EvictL0Locked();

  BaselineOptions options_;
  std::string dbname_;
  Env* env_;
  Clock* clock_;
  InternalKeyComparator icmp_;
  std::unique_ptr<BloomFilterPolicy> filter_policy_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<PmPool> pool_;                 // nullptr: level-0 on SSD
  std::unique_ptr<L0TableFactory> sst_factory_;  // SSTables (and SSD L0)
  std::unique_ptr<L0TableFactory> row_factory_;  // PM rows, when pool_
  std::unique_ptr<LeveledStore> store_;

  std::mutex mu_;
  MemTable* mem_ = nullptr;
  std::unique_ptr<WritableFile> wal_file_;
  std::unique_ptr<wal::Writer> wal_;
  uint64_t wal_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  std::vector<L0TableRef> l0_;  // newest first, mutually overlapping

  // Declared last: the registry's callbacks capture the members above.
  obs::MetricsRegistry metrics_;
  DbStatistics stats_{&metrics_};
};

}  // namespace pmblade

#endif  // PMBLADE_BASELINE_BASELINE_DB_H_
