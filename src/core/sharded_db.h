// ShardedDB: a shard-per-core engine behind the pmblade::DB interface.
//
// N independent DBImpl shards — each with its own directory under <dbname>,
// memtable, WAL + group-commit leader, PM level-0, flush thread and
// compaction scheduler — routed by hash(user key) % N. The point of the
// design is that the hot single-shard serialization points (the writer
// queue's leader, the single flush thread, the compaction scheduler, the DB
// mutex) stop being process-wide: a write stalls only when ITS shard's flush
// is behind, and N leaders fsync N WALs concurrently.
//
// Semantics vs the single-shard engine:
//   * Point ops (Get/Put/Delete) are identical — one shard serves each key.
//   * WriteBatch (MSET/mixed batches): the batch is split into per-shard
//     sub-batches. A batch that lands on ONE shard commits through that
//     shard's normal group-commit path (the marker-free fast path: no 2PC
//     records, identical to num_shards=1). A batch spanning several shards
//     commits through a two-phase protocol woven into the per-shard WALs:
//       phase 1  every participant appends + fsyncs a kPrepare record
//                (global txn id + its sub-batch);
//       phase 2  every participant assigns sequences and publishes in
//                memory; its tiny kCommit marker goes out with the shard's
//                next WAL append (or rotation, or close).
//     Each phase is one wave over the participants, run by one rule
//     (RunWave): a small batch runs it inline on the caller, a bulk batch
//     (and a prepare wave on the SSD WAL) in parallel on a fan-out pool.
//     Crash recovery buffers replayed prepares instead of applying them;
//     the facade then resolves every in-doubt txn across the shard WALs
//     (commit evidence anywhere, or all prepares durable => COMMIT;
//     a rollback marker or any missing prepare => ROLL BACK), so reopen is
//     always all-or-nothing — a cross-shard batch can never surface
//     half-applied after a crash. Because prepares are always fsynced, an
//     acknowledged cross-shard batch survives a power cut even without
//     WriteOptions::sync (upgraded durability); the flip side is that an
//     in-flight batch the client never saw acknowledged may be resolved
//     COMMITTED at reopen (the standard 2PC indeterminate window).
//     Note the guarantee is crash atomicity, not isolation: a concurrent
//     reader (or snapshot) can still observe shard A's half briefly before
//     shard B publishes.
//   * Iterators/SCAN: an N-way merge of per-shard user-key iterators.
//     Hash routing makes shard keyspaces disjoint, so a bytewise merge of
//     the per-shard sorted views IS the global sorted view. Without an
//     explicit snapshot the view is per-shard-consistent, not
//     point-in-time across shards (same caveat as MGET fan-out).
//   * Snapshots: GetSnapshot() captures one sequence per shard and returns
//     an opaque handle; reads/iterators translate the handle back to the
//     per-shard sequences, giving a consistent view within every shard.
//   * Backpressure: GetWritePressure() is the max across shards (the
//     box-level view); GetWritePressure(key) is the routed shard's, which
//     is what the RESP server's admission control uses so one stalled
//     shard never sheds traffic bound for idle shards.
//
// Process-wide resources: the facade owns one EngineParts (db_impl.h), the
// same parts a single-shard engine owns: one BlockCache
// (Options::block_cache_bytes) and one SsdModel (the caller's, or one
// private model when Options::ssd_model is null) behind every shard, and
// one MemoryBudget/MemoryArbiter (Options::memory_budget_bytes) that
// re-divides DRAM between the combined memtable quota, the cache and the
// combined Eq. 3 keep-set. Its floors are the single engine's for any
// shard count; the memtable and keep-set targets are split evenly across
// the shards on apply.
//
// The shard count is pinned in a <dbname>/SHARDS marker at creation;
// reopening with a different num_shards fails loudly instead of silently
// mis-routing keys.

#ifndef PMBLADE_CORE_SHARDED_DB_H_
#define PMBLADE_CORE_SHARDED_DB_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/db_impl.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace pmblade {

class ShardedDB final : public DB {
 public:
  ShardedDB(const Options& options, const std::string& dbname);
  ~ShardedDB() override;

  /// Used by DB::Open (options.num_shards > 1).
  Status Init();

  /// The one reader of the <dbname>/SHARDS marker. Fails when the marker
  /// pins a count other than `num_shards`; creates it when it is missing
  /// and num_shards > 1 (a single-shard directory has no marker).
  static Status CheckOrPinShardCount(Env* env, const std::string& dbname,
                                     uint32_t num_shards);

  // ---- routing (static so DestroyDB and tests can reuse them) ----
  /// FNV-1a over the user key, mod num_shards.
  static uint32_t ShardOfKey(const Slice& key, uint32_t num_shards);
  /// The per-shard PM pool path when Options::pm_pool_path is explicit
  /// ("<path>.shard-<i>"); shards with an empty path default to
  /// "<shard dir>/pool.pm" as usual.
  static std::string ShardPmPoolPath(const std::string& base, uint32_t shard);
  /// "<dbname>/shard-<i>".
  static std::string ShardDirName(const std::string& dbname, uint32_t shard);

  // ---- DB interface ----
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  uint64_t GetSnapshot() override;
  void ReleaseSnapshot(uint64_t snapshot) override;
  Status FlushMemTable() override;
  Status CompactLevel0() override;
  Status CompactToLevel1(bool respect_cost_model) override;
  /// Shard 0's recording handle (see DB::statistics).
  const DbStatistics& statistics() const override {
    return shards_[0]->statistics();
  }
  DbStatistics& statistics() override { return shards_[0]->statistics(); }
  bool GetProperty(const std::string& property, uint64_t* value) override;
  bool GetProperty(const std::string& property, std::string* value) override;
  WritePressure GetWritePressure() override;
  uint32_t num_shards() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  WritePressure GetWritePressure(const Slice& key) override;
  WritePressure GetShardWritePressure(uint32_t shard) override;
  obs::MetricsRegistry* metrics_registry() override { return &metrics_; }

  /// Direct shard access for tests/benches.
  DBImpl* shard(uint32_t index) { return shards_[index].get(); }

 private:
  uint32_t Route(const Slice& key) const {
    return ShardOfKey(key, static_cast<uint32_t>(shards_.size()));
  }

  void RegisterAggregatedMetrics();
  /// Reads `name` from the shards' registries: the cross-shard value folded
  /// by CombineOf (sharded_db.cc), or one shard's value for a
  /// "pmblade.shard.<i>." name. The facade registry's provider.
  bool ReadShardMetric(const std::string& name, obs::MetricSample* out);

  // ---- cross-shard writes ----
  /// The three waves of a cross-shard commit.
  enum class Wave { kPrepare, kCommit, kRollback };
  /// Runs fn(shard) for every participant of one wave of a batch of
  /// `entries` entries and returns once ALL have finished. The one rule
  /// for every wave: a batch of at most 64 entries runs it inline on the
  /// caller, one participant after another (a prepare wave only with
  /// Options::wal_in_pm). Any other wave is parallel: N-1 participants on
  /// fanout_pool_, the last on the caller, joined by a local countdown
  /// latch (the pool's Wait() is a global barrier and would serialize
  /// unrelated callers), and counted in pmblade.txn.fanout_waves.
  void RunWave(Wave wave, size_t entries,
               const std::vector<uint32_t>& participants,
               const std::function<void(uint32_t)>& fn);
  /// Two-phase commit of a multi-shard batch: a prepare wave (always
  /// fsynced), then a wave of memory-only commits, each run by RunWave. On
  /// a prepare failure a rollback wave gives every participant a rollback
  /// marker and the first error returns.
  Status WriteAtomic(const WriteOptions& options,
                     std::vector<WriteBatch>& subs,
                     const std::vector<uint32_t>& participants);
  /// Recovery resolution pass (Init, after every shard opened): collects
  /// in-doubt txns across shards, decides commit/rollback from the
  /// evidence, applies the verdict with synced markers, then forgets all
  /// retained txn state so the shards start clean.
  Status ResolveInDoubtTxns();
  /// Forgets committed fences whose commit marker is durable on EVERY
  /// participant (until then, WAL rotation keeps carrying the evidence a
  /// sibling's recovery might need). Called opportunistically.
  void DrainForgettableTxns();
  /// DrainForgettableTxns after a single-shard write that was synced.
  void DrainAfterSyncWrite(const WriteOptions& options);

  /// Translates a facade snapshot handle into per-shard ReadOptions for
  /// shard `shard`. Unknown handles return NotFound.
  Status TranslateSnapshot(uint64_t handle, uint32_t shard,
                           uint64_t* shard_snapshot) const;

  Options options_;
  std::string dbname_;
  Env* env_ = nullptr;

  /// The block cache, SSD model and arbiter of every shard. Destroyed
  /// after the shards; ~ShardedDB stops the arbiter first.
  std::unique_ptr<EngineParts> parts_;
  std::vector<std::unique_ptr<DBImpl>> shards_;

  // Snapshot handles: facade handle -> one sequence per shard. Bounded by
  // the callers: the RESP layer releases a connection's pinned snapshot on
  // teardown (see CommandHandler::Session), so abandoned SCAN cursors /
  // dropped connections cannot grow this map forever.
  mutable std::mutex snap_mu_;
  uint64_t next_snapshot_handle_ = 1;
  std::map<uint64_t, std::vector<uint64_t>> snapshots_;

  // ---- cross-shard 2PC state ----
  /// Fan-out workers for multi-shard writes (nullptr until Init).
  std::unique_ptr<ThreadPool> fanout_pool_;
  /// Global txn ids, seeded past the max id any shard replayed.
  std::atomic<uint64_t> next_txn_id_{1};
  /// Committed txns whose fences are still retained shard-side; drained by
  /// DrainForgettableTxns once every participant's marker is durable.
  struct PendingForget {
    uint64_t txn_id = 0;
    std::vector<uint32_t> participants;
  };
  std::mutex txn_mu_;
  std::vector<PendingForget> pending_forget_;
  obs::Counter* txn_fanout_waves_counter_ = nullptr;  // waves on the pool
  obs::Counter* txn_in_doubt_counter_ = nullptr;   // found at open
  obs::Counter* txn_resolved_commit_counter_ = nullptr;
  obs::Counter* txn_resolved_rollback_counter_ = nullptr;

  /// Facade registry: the server's counters, the shared arbiter's
  /// pmblade.mem.* metrics and the facade-owned metrics, plus a provider
  /// that splices in every shard's registry (cross-shard aggregates +
  /// pmblade.shard.<i>.* breakdown).
  obs::MetricsRegistry metrics_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_SHARDED_DB_H_
