// pmblade::DB — the public API of the PM-Blade storage engine.
//
// A DB is a partitioned LSM-tree whose level-0 lives in (simulated)
// persistent memory: writes land in a DRAM memtable backed by a WAL; minor
// compaction flushes memtable segments to PM tables per partition; internal
// compaction keeps level-0 sorted and deduplicated on cost grounds
// (Eqs. 1-2); major compaction moves the cold partitions' data to level-1
// SSTables on the SSD while keeping the hot partitions in PM (Eq. 3),
// executed by the coroutine compaction engine.

#ifndef PMBLADE_CORE_DB_H_
#define PMBLADE_CORE_DB_H_

#include <memory>
#include <string>

#include "core/kv_engine.h"
#include "core/options.h"
#include "core/statistics.h"
#include "memtable/write_batch.h"
#include "util/iterator.h"

namespace pmblade {

class DB : public KvEngine {
 public:
  /// Opens (creating or recovering) the database rooted at `dbname`.
  static Status Open(const Options& options, const std::string& dbname,
                     std::unique_ptr<DB>* db);

  ~DB() override = default;

  // ---- writes ----
  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* batch) = 0;

  // ---- reads ----
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;
  /// Iterator over live (user key, value) pairs at the read snapshot.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  // ---- snapshots ----
  virtual uint64_t GetSnapshot() = 0;
  virtual void ReleaseSnapshot(uint64_t snapshot) = 0;

  // ---- maintenance ----
  /// Flushes the memtable to level-0 (minor compaction).
  virtual Status FlushMemTable() = 0;
  /// Forces internal compaction of every partition with unsorted tables.
  virtual Status CompactLevel0() = 0;
  /// Forces major compaction (level-0 -> level-1); when `respect_cost_model`
  /// the Eq. 3 retained set stays in PM, otherwise everything moves down.
  virtual Status CompactToLevel1(bool respect_cost_model) = 0;

  // ---- introspection ----
  /// The engine's recording handle for read, write, flush and compaction
  /// statistics (a sharded engine returns shard 0's). It holds no values:
  /// read them from metrics_registry(), e.g. "pmblade.reads.pm_l0" or
  /// "pmblade.writes". It stays in this interface only because DB
  /// wrappers outside the engine (perfbench's TraceDB) override it.
  virtual const DbStatistics& statistics() const = 0;
  virtual DbStatistics& statistics() = 0;
  /// Numeric properties, read from metrics_registry() by metric name, e.g.
  /// "pmblade.lsm.l0_bytes" or "pmblade.writes"; the four hyphenated
  /// aliases in PropertyAliases() (core/properties.h) also resolve. On a
  /// sharded engine the name reads the cross-shard total, and
  /// "pmblade.shard.<i>.<name>" reads one shard. False for unknown names.
  virtual bool GetProperty(const std::string& property, uint64_t* value) = 0;
  /// Instantaneous write-path backpressure state (see WritePressure).
  /// Cheap — one short mutex hold — so admission controllers may poll it
  /// per request. Also exposed as the "pmblade.write.pressure" property.
  /// On a sharded DB this is the MAX across shards (the box-level view);
  /// admission control should prefer the keyed overload below so one hot
  /// shard cannot shed traffic bound for idle shards.
  virtual WritePressure GetWritePressure() = 0;

  // ---- sharding ----
  /// Number of independent engine shards behind this DB (1 for the classic
  /// single-DBImpl engine).
  virtual uint32_t num_shards() const { return 1; }
  /// Backpressure of the shard `key` routes to. On the single-shard engine
  /// this is just GetWritePressure().
  virtual WritePressure GetWritePressure(const Slice& key) {
    (void)key;
    return GetWritePressure();
  }
  /// Backpressure of one shard by index (for INFO / metrics breakdown).
  virtual WritePressure GetShardWritePressure(uint32_t shard) {
    (void)shard;
    return GetWritePressure();
  }
  /// String-valued properties:
  ///   "pmblade.stats.json"       — full metrics snapshot + recent trace
  ///                                events as one JSON document (a sharded
  ///                                engine lists every shard's events),
  ///   "pmblade.stats.prometheus" — the same metrics in Prometheus text
  ///                                exposition format,
  ///   "pmblade.stats"            — human-readable summary of the read,
  ///                                write, flush and compaction counters,
  ///   "pmblade.trace.json"       — recent engine events as JSON lines.
  virtual bool GetProperty(const std::string& property,
                           std::string* value) = 0;

  // ---- KvEngine facade (latest-snapshot convenience) ----
  Status Put(const Slice& key, const Slice& value) override {
    return Put(WriteOptions(), key, value);
  }
  Status Delete(const Slice& key) override {
    return Delete(WriteOptions(), key);
  }
  Status Get(const Slice& key, std::string* value) override {
    return Get(ReadOptions(), key, value);
  }
  Iterator* NewScanIterator() override { return NewIterator(ReadOptions()); }
  Status Flush() override { return FlushMemTable(); }
  std::string Name() const override { return "pmblade"; }
};

/// Destroys the database rooted at `dbname` (files + PM pool).
Status DestroyDB(const Options& options, const std::string& dbname);

}  // namespace pmblade

#endif  // PMBLADE_CORE_DB_H_
