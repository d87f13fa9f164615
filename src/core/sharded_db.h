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
//                (global txn id + its sub-batch) — all shards in PARALLEL,
//                so the batch pays max(shard fsync), not the sum;
//       phase 2  every participant assigns sequences and publishes in
//                memory; its tiny kCommit marker goes out with the shard's
//                next WAL append (or rotation, or close).
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
// Process-wide resources: one BlockCache (Options::block_cache_bytes) is
// shared by every shard, and one MemoryBudget/MemoryArbiter
// (Options::memory_budget_bytes) re-divides DRAM between the combined
// memtable quota, the shared cache and the combined Eq. 3 keep-set — the
// per-component targets are split evenly across shards on apply.
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
#include "mem/arbiter.h"
#include "mem/memory_budget.h"
#include "obs/metrics.h"
#include "sstable/block_cache.h"
#include "util/thread_pool.h"

namespace pmblade {

class ShardedDB final : public DB {
 public:
  ShardedDB(const Options& options, const std::string& dbname);
  ~ShardedDB() override;

  /// Used by DB::Open (options.num_shards > 1).
  Status Init();

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

  /// Reads or creates the <dbname>/SHARDS marker; fails on a mismatch.
  Status CheckOrPinShardCount();
  Status SetUpSharedArbiter();
  void RegisterAggregatedMetrics();
  /// Reads `name` from the shards' registries: the cross-shard value folded
  /// by CombineOf (sharded_db.cc), or one shard's value for a
  /// "pmblade.shard.<i>." name. The facade registry's provider.
  bool ReadShardMetric(const std::string& name, obs::MetricSample* out);

  // ---- cross-shard writes ----
  /// Runs fn(shard) concurrently for every shard index in `ids` (the last
  /// one inline on the caller); returns once ALL have finished. Uses a
  /// local countdown latch — the pool's Wait() is a global barrier and
  /// would serialize unrelated callers.
  void RunOnShards(const std::vector<uint32_t>& ids,
                   const std::function<void(uint32_t)>& fn);
  /// Two-phase commit of a multi-shard batch: parallel prepare wave
  /// (always fsynced), then parallel memory-only commits. On a prepare
  /// failure every participant gets a rollback marker and the first error
  /// returns.
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
  /// A caller-owned SSD model is one device behind every shard.
  const bool shared_ssd_ = options_.ssd_model != nullptr;

  /// The process-wide block cache every shard reads through (nullptr when
  /// block_cache_bytes == 0). Destroyed after the shards.
  std::unique_ptr<BlockCache> shared_cache_;
  std::vector<std::unique_ptr<DBImpl>> shards_;

  // Shared memory arbitration (memory_budget_bytes > 0): one budget over
  // the combined memtable quota, the shared cache and the combined τ_t.
  std::unique_ptr<mem::MemoryBudget> mem_budget_;
  std::unique_ptr<mem::MemoryArbiter> arbiter_;

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
