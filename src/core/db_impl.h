// DBImpl: the engine behind pmblade::DB.
//
// Threading model (the concurrent write pipeline):
//   * Writes go through a leader/follower writer queue. The front writer
//     (leader) coalesces pending batches into one group, appends it to the
//     WAL, fsyncs ONCE if any member asked for durability, and inserts into
//     the memtable — all OUTSIDE the DB mutex (queue order makes the
//     WAL/memtable section single-writer). Sequence visibility is published
//     under the mutex only after the whole group is in the memtable, so
//     readers never observe a torn group.
//   * Memtable flush runs on a background thread: MakeRoomForWrite switches
//     mem_ -> imm_ and schedules the PM-table build on a one-thread pool;
//     writers are backpressured (slowdown, then hard stall) instead of
//     building tables inline. Flush completion installs the level-0 tables
//     under a short critical section, wakes stalled writers, and hands the
//     Eq. 1/2/3 compaction triggers to the compaction scheduler.
//   * Algorithm 1 (internal + major compaction) runs on the DEDICATED
//     CompactionScheduler pool (Options::compaction_workers threads; 1 by
//     default), never on the flush thread: a check snapshots partition
//     table refs and counters under a short mu_ hold, runs the merge and
//     all simulated-SSD I/O with the mutex released, and re-acquires mu_
//     only for the install + PersistManifest step. With N workers, several
//     checks execute concurrently under the per-partition CLAIM protocol:
//     a check claims (in compacting_, under mu_) every partition it will
//     compact — its dirty set plus any extra major-compaction victims — and
//     skips partitions another check holds, so no two workers ever mutate
//     the same partition's runs. Claims are released (and skipped work is
//     re-scheduled) when the check finishes. Manual compactions
//     (CompactLevel0/CompactToLevel1) funnel through RunExclusive, a
//     pool-wide barrier, so they observe quiesced partitions without
//     claiming. Only a claim-holding check (or an exclusive manual job)
//     removes tables from a partition; the flush thread only prepends — see
//     the ref discipline notes in partition.h.
//   * Readers grab {mem, imm, partition table refs, snapshot} under a brief
//     mutex hold and probe everything lock-free afterwards, so neither a
//     flush nor a compaction in flight ever blocks a Get past that grab.
//   * The major-compaction engine additionally parallelizes internally with
//     its own worker threads + coroutines.

#ifndef PMBLADE_CORE_DB_IMPL_H_
#define PMBLADE_CORE_DB_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "compaction/internal_compaction.h"
#include "compaction/major_compaction.h"
#include "compaction/minor_compaction.h"
#include "compaction/policy/compaction_picker.h"
#include "core/compaction_scheduler.h"
#include "core/db.h"
#include "core/manifest.h"
#include "core/partition.h"
#include "env/sim_env.h"
#include "mem/arbiter.h"
#include "memtable/skiplist_memtable.h"
#include "memtable/wal.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "pm/pm_log.h"
#include "sstable/block_cache.h"
#include "util/bloom.h"
#include "util/thread_pool.h"

namespace pmblade {

class DBImpl final : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);
  ~DBImpl() override;

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
  const DbStatistics& statistics() const override { return stats_; }
  DbStatistics& statistics() override { return stats_; }
  using DB::GetWritePressure;  // keyed/per-shard overloads (single shard:
                               // they forward to the global probe)
  WritePressure GetWritePressure() override;
  obs::MetricsRegistry* metrics_registry() override { return &metrics_; }
  bool GetProperty(const std::string& property, uint64_t* value) override;
  bool GetProperty(const std::string& property, std::string* value) override;

  // ---- cross-shard two-phase commit (driven by ShardedDB) ----
  // A cross-shard batch is split into per-shard sub-batches; each
  // participating shard gets a kPrepare WAL record (always fsynced) holding
  // its sub-batch, then a commit that assigns sequences and inserts the
  // buffered payload into the memtable. An unsynced commit is memory-only:
  // its tiny kCommit marker goes out with the shard's next WAL append (or
  // the next rotation, or close). Prepares consume no sequence numbers and
  // are invisible to readers until committed. Recovery buffers replayed
  // prepares; the facade resolves in-doubt transactions across shards at
  // open (see ShardedDB::ResolveInDoubtTxns).

  /// What this shard knows about a transaction, for sibling resolution.
  enum class TxnPeerState { kUnknown, kPrepared, kCommitted, kRolledBack };
  struct InDoubtTxn {
    uint64_t txn_id = 0;
    std::vector<uint32_t> participants;
  };

  /// Phase 1: append + fsync a kPrepare record carrying `batch` and buffer
  /// it. Goes through the writer queue as its own commit group.
  Status PrepareTxn(const WriteOptions& options, uint64_t txn_id,
                    const std::vector<uint32_t>& participants,
                    WriteBatch* batch);
  /// Phase 2: assign sequences, insert the buffered sub-batch into the
  /// memtable and publish. With options.sync the kCommit marker is appended
  /// and fsynced at once; otherwise it waits for the next WAL append. The
  /// entry is retained as a committed fence until ForgetTxn.
  Status CommitTxn(const WriteOptions& options, uint64_t txn_id);
  /// Appends a kRollback marker (fsynced only when options.sync) and drops
  /// the buffered sub-batch. Harmless if the txn was never prepared here.
  Status RollbackTxn(const WriteOptions& options, uint64_t txn_id);
  /// Transactions recovered as prepared-but-unresolved (no commit/rollback
  /// marker replayed).
  std::vector<InDoubtTxn> GetInDoubtTxns();
  TxnPeerState QueryTxn(uint64_t txn_id);
  /// True once the txn's commit marker is in the WAL and covered by an
  /// fsync (or the txn is unknown, i.e. already forgotten).
  bool TxnMarkerDurable(uint64_t txn_id);
  /// Drops the committed fence / recovery evidence for `txn_id`. Only safe
  /// once every participant's commit marker is durable.
  void ForgetTxn(uint64_t txn_id);
  /// Highest txn id seen during WAL replay (0 if none): the facade seeds
  /// its txn-id allocator above the max across shards.
  uint64_t MaxSeenTxnId();
  /// Every txn id with retained state here (pending prepares, committed
  /// fences, replay evidence) — what the facade sweeps after resolution.
  std::vector<uint64_t> GetRetainedTxnIds();

  // Used by DB::Open.
  Status Init();

  // Exposed for tests/benches.
  PmPool* pm_pool() { return pool_.get(); }
  SsdModel* ssd_model() { return model_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// The trace ring's events, oldest first; empty when tracing is off.
  std::vector<obs::Event> TraceEvents() const;

  // ---- hooks for an external arbiter (ShardedDB's shared MemoryArbiter;
  // also exercised directly by tests) ----
  /// Retunes the live memtable rotation threshold (what the embedded
  /// arbiter's apply callback does for mem::kMemtable).
  void SetMemtableLimit(size_t bytes) {
    memtable_limit_.store(bytes, std::memory_order_relaxed);
  }
  /// Retunes the Eq. 3 keep-set budget τ_t (mem::kKeepSet). Clamped to >= 1
  /// because 0 reads as "unset" to the cost model.
  void SetDynamicTauT(uint64_t bytes);

 private:
  friend class DBUserIterator;

  /// What a queued writer asks the leader to do. A run of txn ops queued
  /// together forms one txn group (TxnGroupWriteLocked), a run of batches
  /// one batch group (BuildBatchGroup); no group mixes the two.
  enum class WriteKind : uint8_t { kBatch, kTxnPrepare, kTxnCommit,
                                   kTxnRollback };

  /// One queued write (stack-allocated in Write). batch == nullptr with
  /// kind == kBatch is a force-flush marker: the leader only rotates the
  /// memtable.
  struct WriterState {
    explicit WriterState(WriteBatch* b, bool s) : batch(b), sync(s) {}
    WriterState(WriteKind k, uint64_t id, WriteBatch* b, bool s)
        : batch(b), sync(s), kind(k), txn_id(id) {}
    WriteBatch* batch;
    bool sync;
    WriteKind kind = WriteKind::kBatch;
    uint64_t txn_id = 0;
    const std::vector<uint32_t>* participants = nullptr;  // kTxnPrepare only
    bool done = false;
    Status status;
    std::condition_variable cv;
    /// Leaders signal `cv` after releasing mu_ (see WriteInternal). Each
    /// pending signal holds a pin, and the owner returns (destroying this
    /// state) only once the pins are gone.
    std::atomic<int> wake_pins{0};
    WriterState* next_wake = nullptr;  // the waking leader's list
  };

  /// Shared queue-join + leader dispatch behind Write and the txn ops.
  Status WriteInternal(const WriteOptions& options, WriterState& w);
  /// Waits until no leader is still signalling `w`; called before `w`'s
  /// owner returns.
  static void AwaitWakePins(const WriterState& w);

  /// An unsynced commit's kCommit record waiting for the next WAL append.
  struct PendingMarker {
    uint64_t txn_id;
    std::string record;
    uint64_t ticket = 0;  // set once the marker is appended
  };
  /// Leader-only. Appends the pending commit markers and then `records[0,
  /// n)` with ONE AddRecords call (a single device write), so log order
  /// stays sequence order. The markers move into *landed with their
  /// tickets; *first_ticket is the ticket of records[0]. With no marker
  /// pending this is exactly one plain AddRecords call.
  Status AppendToWal(const Slice* records, size_t n,
                     std::vector<PendingMarker>* landed,
                     uint64_t* first_ticket);
  /// Leader-only. Fsyncs the active log and publishes the synced ticket:
  /// every record appended so far is then durable.
  Status SyncWal();
  /// Leader-only; enters and leaves with `lock` held. The one commit
  /// sequence of batch and txn groups: releases mu_, appends `records[0, n)`
  /// (log order; n == 0 is a memory-only group) through AppendToWal, fsyncs
  /// when `sync`, inserts `payloads` (sequences assigned) into mem_, retakes
  /// mu_, hands a WAL failure to HandleWalErrorLocked (or else gives each
  /// commit marker the append carried its WAL ticket), and publishes
  /// `publish_seq` if every step succeeded and a payload was inserted.
  /// `members` is the writes the group covers (its kWalSync event);
  /// *first_ticket is records[0]'s WAL ticket. The leader's kind picks the
  /// sync points: a batch group hits DBImpl::Write:*, a txn group the
  /// PrepareTxn/CommitTxn points once per record of that kind.
  Status CommitGroupLocked(std::unique_lock<std::mutex>& lock,
                           const Slice* records, size_t n,
                           WriteBatch* const* payloads, size_t num_payloads,
                           bool sync, SequenceNumber publish_seq,
                           size_t members, uint64_t* first_ticket);
  /// mu_ held, leader-only, after a failed WAL append or sync. Busy means
  /// the PM log found no pool space and wrote nothing: the DB stays
  /// writable, and the memtable rotates so the flush that frees the log
  /// starts now. Any other failure leaves the log's framing or durability
  /// unknown, so it fails every later write.
  void HandleWalErrorLocked(const Status& s);
  /// Leader-only: executes the leader's txn op plus every txn op queued
  /// directly behind it as ONE commit group — a single WAL append run and
  /// at most one shared fsync, or no device write at all when every member
  /// is an unsynced commit (the txn mirror of BuildBatchGroup). Enters
  /// and leaves with `lock` held; validates and stages the members, runs
  /// CommitGroupLocked, then records the outcome in txns_. Gives every
  /// member its status and advances `*last_writer` to the last coalesced
  /// member so the caller's wake loop covers the whole group.
  Status TxnGroupWriteLocked(std::unique_lock<std::mutex>& lock,
                             WriterState& leader, WriterState** last_writer);
  /// Re-appends buffered prepares (and commit markers for fences) into the
  /// freshly rotated WAL as one append run, then fsyncs it if anything was
  /// carried: the old copies die with their WAL at the next flush commit,
  /// so the new WAL must hold the records durably BEFORE that deletion can
  /// happen.
  Status CarryTxnRecordsLocked();

  // ---- startup ----
  Status RecoverPartitions(const ManifestState& state);
  /// Replays every WAL file numbered >= `floor` (ascending) into mem_ and
  /// garbage-collects older, already-flushed logs.
  Status ReplayWals(uint64_t floor);
  Status NewWal();

  // ---- write path ----
  /// Leader-only; mu_ held (released while sleeping/stalling). Ensures the
  /// active memtable has room, switching it out + scheduling a background
  /// flush when full (or `force`), applying slowdown/stop backpressure.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, bool force);
  /// mu_ held, imm_ == nullptr: mem_ -> imm_, new WAL, schedule the flush.
  Status SwitchMemTableLocked();
  /// Coalesces writers_ [front, ...] into one batch; *sync becomes the OR
  /// of every member's sync flag, *num_members the group width. mu_ held.
  WriteBatch* BuildBatchGroup(WriterState** last_writer, bool* sync,
                              size_t* num_members);
  /// Runs on flush_pool_: builds per-partition L0 tables from imm_ without
  /// the mutex, installs them + commits the manifest under it, wakes
  /// stalled writers, then enqueues the compaction triggers to the
  /// scheduler.
  void BackgroundFlush();
  /// Eq. 2 update-detection counters for one commit group; runs in the
  /// unlocked leader section BEFORE the group is inserted into `mem`.
  void NoteGroupWrites(const WriteBatch& group, MemTable* mem);

  /// mu_ held. Records the partitions the flush touched and enqueues one
  /// Algorithm-1 check on the compaction scheduler. Cannot fail — so the
  /// flush path never inherits a compaction error (bg_error_ is reserved
  /// for flush/WAL/manifest failures).
  void ScheduleCompactionCheck(const std::vector<Partition*>& touched);
  /// mu_ held. Adds `partition` to compaction_dirty_ (deduplicated).
  void MarkCompactionDirtyLocked(Partition* partition);
  /// Scheduler-pool entry: CLAIMS the dirty partitions no concurrent check
  /// holds (leaving the rest dirty for the holder to re-trigger) and runs
  /// Algorithm 1 on them. A failure re-arms the dirty set so the
  /// scheduler's retry (or the next flush-triggered check) re-evaluates the
  /// same partitions; leftover dirty work found at completion is handed to
  /// a fresh check.
  Status BackgroundCompactionCheck();
  /// Algorithm 1 for the CLAIMED set `touched`. Enters and leaves with
  /// `lock` held, but releases it for every merge and simulated-SSD I/O.
  /// Claims extra major-compaction victims itself (releasing them before
  /// returning); continues past a failing partition's internal compaction
  /// and reports the first error at the end, so one poisoned partition
  /// never blocks its siblings' progress within the same check.
  Status RunCompactionsLocked(std::unique_lock<std::mutex>& lock,
                              const std::vector<Partition*>& touched);
  Status RunInternalCompactionOnPartition(std::unique_lock<std::mutex>& lock,
                                          Partition* partition);

  /// A picker-chosen CompactionJob resolved to its partition. Fields mirror
  /// CompactionJob (see compaction/policy/compaction_picker.h); run indices
  /// are valid from the pick through the install because the executor holds
  /// the partition's claim and only the claim holder mutates ssd_runs().
  struct MajorJob {
    Partition* partition = nullptr;
    bool include_l0 = true;
    size_t run_begin = 0;
    size_t run_end = 0;
    uint32_t output_level = 1;
  };
  /// The "classic" major-compaction job: level-0 plus the whole run stack
  /// merge into one level-1 run (what every pre-picker compaction did, and
  /// still the shape of the conventional-policy and manual paths).
  static MajorJob FullCollapseJob(Partition* partition);
  /// Snapshot of every partition for the picker; `ours` is this check's
  /// claimed set (claimable for job purposes even though marked claimed).
  /// mu_ held.
  PickContext BuildPickContextLocked(const std::set<Partition*>& ours);
  /// Executes picker-chosen jobs — at most one per partition — as ONE
  /// compactor run: key-range subcompactions per job, outputs opened before
  /// any mutation, every install under a single mu_ hold + manifest commit.
  /// Caller holds the claim of every job's partition.
  Status RunMajorCompactionOnJobs(std::unique_lock<std::mutex>& lock,
                                  const std::vector<MajorJob>& jobs);
  /// mu_ held. Retries file deletions whose first attempt failed (flushed
  /// WALs); called after a successful manifest commit.
  void RetryPendingFileGcLocked();
  /// Emits a keep_set_selected event carrying the Eq. 3 score of every
  /// partition (reads/byte) and which side of the knapsack it landed on.
  void EmitKeepSetEvent(const std::vector<PartitionCounters>& all,
                        const std::set<size_t>& keep, uint64_t tau_t,
                        uint64_t total_l0_bytes);

  Status PersistManifest();

  /// mu_ held. Aggregate shape of one LSM level across partitions: level 0
  /// is the PM side (each unsorted table is one run, the sorted run one
  /// more); level >= 1 counts the SSD runs carrying that level tag.
  struct LevelShape {
    uint64_t runs = 0;
    uint64_t files = 0;
    uint64_t bytes = 0;
  };
  LevelShape LevelShapeLocked(uint32_t level) const;

  // ---- read path ----
  /// GetSnapshot's handle for a snapshot at sequence 0 (nothing written
  /// yet): ReadOptions::snapshot == 0 already means "latest", and no real
  /// sequence exceeds kMaxSequenceNumber.
  static constexpr uint64_t kEmptySnapshot = kMaxSequenceNumber + 1;
  /// mu_ held. The sequence a read at `snapshot` (a GetSnapshot handle, or
  /// 0 for latest) sees.
  SequenceNumber ReadSequenceLocked(uint64_t snapshot) const;
  Partition* FindPartition(const Slice& user_key);
  SequenceNumber OldestLiveSnapshot() const;

  /// Builds the children for a merged internal iterator at a snapshot.
  std::vector<Iterator*> CollectInternalIterators();

  Options options_;
  std::string dbname_;
  Env* env_ = nullptr;
  Env* raw_env_ = nullptr;
  SsdModel* model_ = nullptr;
  std::unique_ptr<SsdModel> owned_model_;
  Clock* clock_ = nullptr;

  InternalKeyComparator icmp_;
  std::unique_ptr<BloomFilterPolicy> filter_policy_;
  /// The SST block cache this engine reads through: either owned (created
  /// from block_cache_bytes) or the process-wide cache a ShardedDB injected
  /// via Options::shared_block_cache. nullptr = caching disabled.
  BlockCache* block_cache_ = nullptr;
  std::unique_ptr<BlockCache> owned_block_cache_;
  std::unique_ptr<PmPool> pool_;
  /// Where the write-ahead logs live: created in pool_ (Options::wal_in_pm)
  /// or on env_, and found on both. Declared after pool_, which it uses.
  std::unique_ptr<PmLogEnv> wal_env_;
  std::unique_ptr<L0TableFactory> l0_factory_;     // level-0 layout
  std::unique_ptr<L0TableFactory> l1_factory_;     // SSTables for level-1
  std::unique_ptr<CostModel> cost_model_;
  /// The compaction policy (Options::compaction_policy): owns victim
  /// selection, trigger evaluation and output-level placement for SSD
  /// compaction. Never null after Init.
  std::unique_ptr<CompactionPicker> picker_;

  std::mutex mu_;
  MemTable* mem_ = nullptr;
  MemTable* imm_ = nullptr;  // being flushed in the background, else nullptr
  std::unique_ptr<WritableFile> wal_file_;
  std::unique_ptr<wal::Writer> wal_;
  uint64_t wal_number_ = 0;
  /// WAL numbers (ascending) whose data is not yet durable in level-0
  /// tables. The manifest records the front; recovery replays every log
  /// >= it. With a background flush in flight there are up to two entries
  /// beyond the active log (the imm_'s logs await their flush commit).
  std::vector<uint64_t> live_wals_;
  /// The subset of live_wals_ feeding imm_; deleted when its flush commits.
  std::vector<uint64_t> imm_wals_;
  SequenceNumber last_sequence_ = 0;
  /// Every sequence <= this is durable in level-0 tables (memtables flush
  /// in sequence order, so the flushed imm_'s ceiling is a true watermark).
  /// Persisted in the manifest and used as WAL replay's re-apply floor for
  /// carried txn commit fences. last_sequence_ is NOT a substitute: the
  /// manifest records it ahead of any flush of the covered data (Init,
  /// sibling-partition flushes), and using it as the floor silently drops
  /// committed-but-unflushed txn payloads on a second recovery.
  SequenceNumber flushed_sequence_ = 0;
  /// last_sequence_ captured when mem_ was frozen into imm_; becomes
  /// flushed_sequence_ when that flush commits.
  SequenceNumber imm_ceiling_ = 0;

  // Writer queue (group commit). The front writer is the leader; only it
  // touches the WAL and memtable, which is what makes the unlocked commit
  // section safe.
  std::deque<WriterState*> writers_;
  WriteBatch group_batch_;  // leader scratch for coalesced groups

  // ---- two-phase-commit state (guarded by mu_ unless noted) ----
  /// A prepared (and possibly committed) transaction this shard
  /// participates in. Pending entries (committed == false) hold the
  /// sub-batch until a commit/rollback decides its fate; committed entries
  /// stay as FENCES until the facade's ForgetTxn, so WAL rotation keeps
  /// carrying commit evidence a sibling's recovery might still need.
  struct TxnEntry {
    std::vector<uint32_t> participants;
    std::string payload;        // sub-batch rep, base sequence still 0
    bool committed = false;
    SequenceNumber base_seq = 0;
    uint64_t marker_ticket = 0;  // WAL append ticket of the newest record
  };
  /// TxnEntry::marker_ticket of a commit whose marker is still in
  /// pending_markers_: no fsync covers it.
  static constexpr uint64_t kMarkerPending = ~uint64_t{0};
  std::map<uint64_t, TxnEntry> txns_;
  /// Replay evidence for transactions whose marker survived but whose
  /// buffered payload did not need retention (marker-only commits /
  /// rollbacks seen in the logs). Consulted by QueryTxn during the
  /// facade's resolution pass, cleared by ForgetTxn.
  std::set<uint64_t> replay_committed_;
  std::set<uint64_t> replay_rolled_back_;
  uint64_t max_seen_txn_id_ = 0;
  /// WAL durability tickets: every appended record bumps the append ticket
  /// (a txn group's one AddRecords call bumps it once per record); every
  /// successful fsync publishes the append ticket it covered (appends and
  /// syncs are leader-serialized, so "covered" is just the value at sync
  /// time). A txn marker is durable iff its ticket <= the synced ticket.
  std::atomic<uint64_t> wal_append_ticket_{0};
  std::atomic<uint64_t> wal_synced_ticket_{0};

  // Background flush.
  std::unique_ptr<ThreadPool> flush_pool_;  // one thread
  std::condition_variable flush_done_cv_;   // imm_ drained / bg error
  Status bg_error_;  // sticky fatal background error (flush/WAL/manifest
                     // failures ONLY — compaction failures are retryable and
                     // stay inside the scheduler)

  // Background compaction. Declared before metrics_ (the scheduler
  // registers gauge callbacks capturing itself).
  std::unique_ptr<CompactionScheduler> compaction_scheduler_;
  /// Partitions touched by flushes since the last Algorithm-1 check ran;
  /// guarded by mu_.
  std::vector<Partition*> compaction_dirty_;
  /// The claim set: partitions some in-flight check is compacting. Guarded
  /// by mu_. A check inserts every partition it will touch before releasing
  /// mu_ for the merge and erases them when done; concurrent checks skip
  /// members, which is what keeps N workers off each other's partitions.
  std::set<Partition*> compacting_;
  /// Files whose deletion failed once (flushed WALs); retried after the
  /// next successful manifest commit. Guarded by mu_.
  std::vector<std::string> pending_file_gc_;
  /// True when DBImpl itself must register client I/O with the SSD model's
  /// per-class inflight gauges (q_cli): set at Init unless env_ is a SimEnv
  /// sharing model_, whose file wrappers already classify client I/O.
  bool track_client_io_ = false;
  /// track_client_io_ for WAL appends, which touch the SSD only when the
  /// log is on env_.
  bool track_wal_io_ = false;

  // ---- memory arbitration ----
  /// The live memtable rotation threshold. Seeded from
  /// options_.memtable_bytes; the arbiter retunes it at runtime, so
  /// MakeRoomForWrite/GetWritePressure read THIS, never the option.
  std::atomic<size_t> memtable_limit_{0};
  /// Budget + arbiter, present only when options_.memory_budget_bytes > 0.
  /// Declared before metrics_ (the arbiter registers gauge callbacks
  /// capturing the budget); ~DBImpl stops the arbiter thread before any
  /// member is destroyed, so its callbacks never outrun metrics_ or the
  /// cache.
  std::unique_ptr<mem::MemoryBudget> mem_budget_;
  std::unique_ptr<mem::MemoryArbiter> arbiter_;

  std::vector<std::unique_ptr<Partition>> partitions_;  // ascending ranges
  uint64_t next_partition_id_ = 1;

  std::multiset<uint64_t> live_snapshots_;

  // ---- observability ----
  // Declared after everything the registered callbacks capture; wired in
  // Init(). Cached counter pointers keep cost-model accounting off the
  // registry lock (important: compaction runs under mu_, and taking the
  // registry lock there would invert the Snapshot callback lock order).
  obs::MetricsRegistry metrics_;
  /// Read, write, flush and compaction instruments, owned by metrics_
  /// (so declared after it).
  DbStatistics stats_{&metrics_};
  obs::EventBus events_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  obs::Counter* decision_counter_ = nullptr;       // Eq. 1/2 evaluations
  obs::Counter* eq1_trigger_counter_ = nullptr;
  obs::Counter* eq2_trigger_counter_ = nullptr;
  obs::Counter* keep_set_counter_ = nullptr;       // Eq. 3 selections
  obs::Counter* wal_sync_counter_ = nullptr;
  obs::HistogramMetric* wal_append_hist_ = nullptr;  // nanos per append
  // Write-pipeline instruments.
  obs::Counter* group_counter_ = nullptr;          // commit groups
  obs::Counter* group_write_counter_ = nullptr;    // writes committed in them
  obs::HistogramMetric* group_size_hist_ = nullptr;
  obs::Counter* slowdown_counter_ = nullptr;
  obs::Counter* stall_counter_ = nullptr;
  obs::Counter* stall_nanos_counter_ = nullptr;
  obs::Counter* bg_flush_counter_ = nullptr;
  obs::Counter* file_gc_fail_counter_ = nullptr;  // failed RemoveFile calls
  // Two-phase-commit instruments (cross-shard batches only; the fast path
  // never touches them).
  obs::Counter* txn_prepared_counter_ = nullptr;
  obs::Counter* txn_committed_counter_ = nullptr;
  obs::Counter* txn_rolled_back_counter_ = nullptr;
  // Parallel-compaction instruments: key-range slices merged by major
  // compactions and their cumulative wall time (the bench sweep's metric).
  obs::Counter* subcompaction_counter_ = nullptr;
  obs::Counter* major_wall_nanos_counter_ = nullptr;
  // Read-path instruments (bloom probes accumulated from Get's
  // ReadProbeStats; cache gauges registered over block_cache_).
  obs::Counter* bloom_check_counter_ = nullptr;
  obs::Counter* bloom_negative_counter_ = nullptr;
  obs::Counter* bloom_fp_counter_ = nullptr;

  /// Encoded markers of unsynced commits (2PC state above), oldest first,
  /// not yet in the WAL. Leader-only like wal_ (no mu_): the next append
  /// writes them ahead of its own records, WAL rotation carries them with
  /// every committed fence, and ~DBImpl appends the rest. Declared last,
  /// so no other member moves: beside txns_, single-shard ingest_churn
  /// read 2-4% slower, and so did a build with an unused member there
  /// (EXPERIMENTS.md).
  std::vector<PendingMarker> pending_markers_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_DB_IMPL_H_
