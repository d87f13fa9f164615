// LeveledDb: the conventional DRAM-SSD leveled LSM the paper compares
// against as "RocksDB". Memtable in DRAM, level-0 as whole-memtable SSTable
// files on the SSD (overlapping, compaction triggered at 4 files —
// RocksDB's default), leveled L1..L6 below. No persistent memory anywhere.

#ifndef PMBLADE_BASELINE_LEVELED_DB_H_
#define PMBLADE_BASELINE_LEVELED_DB_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baseline/leveled_store.h"
#include "core/kv_engine.h"
#include "core/statistics.h"
#include "memtable/skiplist_memtable.h"
#include "memtable/wal.h"
#include "sstable/block_cache.h"
#include "util/bloom.h"

namespace pmblade {

struct LeveledDbOptions {
  Env* env = nullptr;  // typically a SimEnv; defaults to PosixEnv()
  size_t memtable_bytes = 4 << 20;
  /// Level-0 file count that triggers L0 -> L1 compaction (RocksDB: 4).
  uint32_t l0_compaction_trigger = 4;
  LeveledStoreOptions levels;
  size_t block_size = 4096;
  int bloom_bits_per_key = 10;
  size_t block_cache_bytes = 8 << 20;
  Clock* clock = nullptr;
};

class LeveledDb final : public KvEngine {
 public:
  static Status Open(const LeveledDbOptions& options,
                     const std::string& dbname,
                     std::unique_ptr<LeveledDb>* db);
  ~LeveledDb() override;

  Status Put(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value) override;
  Iterator* NewScanIterator() override;
  Status Flush() override;
  std::string Name() const override { return "leveled-lsm"; }

  /// Forces L0 down into the levels (bench convenience).
  Status CompactAll();

  obs::MetricsRegistry* metrics_registry() override { return &metrics_; }
  uint64_t l0_files() const { return l0_.size(); }
  const LeveledStore& store() const { return *store_; }

 private:
  LeveledDb(const LeveledDbOptions& options, const std::string& dbname);
  Status Init();
  Status FlushLocked();
  Status CompactL0Locked();

  LeveledDbOptions options_;
  std::string dbname_;
  Env* env_;
  Clock* clock_;
  InternalKeyComparator icmp_;
  std::unique_ptr<BloomFilterPolicy> filter_policy_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<L0TableFactory> factory_;
  std::unique_ptr<LeveledStore> store_;

  std::mutex mu_;
  MemTable* mem_ = nullptr;
  std::unique_ptr<WritableFile> wal_file_;
  std::unique_ptr<wal::Writer> wal_;
  uint64_t wal_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  std::vector<L0TableRef> l0_;  // newest first, mutually overlapping

  obs::MetricsRegistry metrics_;
  DbStatistics stats_{&metrics_};
};

}  // namespace pmblade

#endif  // PMBLADE_BASELINE_LEVELED_DB_H_
