// Options for opening a pmblade::DB, plus per-operation read/write options.

#ifndef PMBLADE_CORE_OPTIONS_H_
#define PMBLADE_CORE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "compaction/major_compaction.h"
#include "compaction/minor_compaction.h"
#include "env/env.h"
#include "env/ssd_model.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table.h"
#include "util/logging.h"

namespace pmblade {

class BlockCache;

struct Options {
  // ---- environments / devices ----
  /// Filesystem the engine reads/writes SSTables, WAL and manifest through.
  /// Pass a SimEnv to get SSD timing; defaults to PosixEnv().
  Env* env = nullptr;
  /// Unsimulated filesystem used by the major-compaction engines (their I/O
  /// timing is charged explicitly through `ssd_model`). Defaults to
  /// PosixEnv().
  Env* raw_env = nullptr;
  /// SSD timing/accounting model shared with `env`'s SimEnv, used by major
  /// compaction and the coroutine I/O gate. May be nullptr (a private,
  /// injection-free model is created).
  SsdModel* ssd_model = nullptr;

  // ---- persistent memory (level-0) ----
  /// Path of the PM pool file; empty = "<dbname>/pool.pm".
  std::string pm_pool_path;
  uint64_t pm_pool_capacity = 256ull << 20;
  PmLatencyOptions pm_latency;
  /// Physical layout of level-0 tables (PMB-P/PMB-PI use kArrayTable;
  /// PMBlade-SSD uses kSstable).
  L0Layout l0_layout = L0Layout::kPmTable;
  PmTableOptions pm_table;
  /// Open the PM pool in crash-simulation mode (see PmPoolOptions::crash_sim):
  /// stores reach the durable image only through Persist(), and
  /// PmPool::SimulateCrash() models a power cut at 8-byte persist
  /// granularity. Test-only.
  bool pm_crash_sim = false;

  // ---- write path ----
  size_t memtable_bytes = 4 << 20;
  /// Keep the write-ahead log in the PM pool (pm/pm_log.h): an append is
  /// persisted when it returns, costs PM writes instead of an SSD write,
  /// and its segments count in the pool's used bytes. false keeps the log
  /// as wal-<n>.log files on `env`. Either setting replays and retires the
  /// logs a DB opened with the other setting left behind.
  bool wal_in_pm = true;
  /// Sync the WAL on every write (same effect as WriteOptions::sync on each
  /// write). Group-commit durability semantics: writers are committed in
  /// leader-coalesced groups, and a group containing ANY synced write (this
  /// flag or WriteOptions::sync) performs a single fsync covering the whole
  /// group — unsynced writes that ride in a synced group therefore get
  /// durability for free, and N concurrent synced writers cost far fewer
  /// than N fsyncs.
  bool sync_wal = false;
  /// Backpressure (slowdown-then-stop). When a background flush is still
  /// running and the active memtable has filled past
  /// `write_slowdown_watermark * memtable_bytes`, each write is delayed
  /// once by `write_slowdown_nanos`; when the memtable is FULL and the
  /// flush has not finished, writers hard-stall until it does.
  double write_slowdown_watermark = 0.875;
  uint64_t write_slowdown_nanos = 1000000;  // 1 ms

  // ---- partitioning ----
  /// Interior user-key boundaries splitting the keyspace into
  /// boundaries.size()+1 range partitions. Empty = single partition.
  std::vector<std::string> partition_boundaries;

  // ---- sharding ----
  /// Number of independent engine shards. 1 (the default) opens the classic
  /// single DBImpl — zero behavioral change. N > 1 makes DB::Open return a
  /// ShardedDB: N DBImpls (each with its own directory under <dbname>,
  /// memtable, WAL + group-commit leader, level-0, flush thread and
  /// compaction scheduler) routed by hash(user key) % N. Per-shard options
  /// (memtable_bytes, pm_pool_capacity, the cost budgets) apply to EACH
  /// shard; block_cache_bytes and memory_budget_bytes stay process-wide
  /// (one shared cache, one arbiter over every shard's quotas). A
  /// WriteBatch spanning several shards commits through two-phase commit
  /// woven into the per-shard WALs, so reopen is always all-or-nothing.
  uint32_t num_shards = 1;
  /// Internal (set by ShardedDB): a process-wide block cache this engine
  /// must use instead of creating its own from block_cache_bytes. Not
  /// owned; must outlive the DB.
  BlockCache* shared_block_cache = nullptr;

  // ---- compaction policy ----
  /// SSD compaction shape: "leveled" (the paper's single level-1 run per
  /// partition; the default, behavior-identical to the pre-picker engine),
  /// "tiered" (size-ratio run stacking, whole-run merges, no intra-level
  /// rewrites — lower write amplification, more runs to read), or
  /// "lazy_leveling" (tiered upper levels over a single-run last level).
  /// Any other name is InvalidArgument at Open. The policy is NOT persisted:
  /// every run stack in the manifest is self-describing (level-tagged
  /// runs), each picker accepts any stack the others built and converges it
  /// to its own invariant, so switching the policy across reopens is safe.
  /// Non-leveled policies require enable_cost_model (the conventional
  /// PMBlade-PM trigger path is leveled-only).
  std::string compaction_policy = "leveled";
  /// T for tiered / lazy_leveling: runs that may stack on one SSD level
  /// before the block merges one level down. Ignored by leveled.
  uint32_t compaction_size_ratio = 4;
  /// Deepest SSD level for tiered / lazy_leveling (>= 1). Ignored by
  /// leveled.
  uint32_t max_ssd_levels = 3;
  /// Use the cost models (Eqs. 1-3). When false, fall back to the
  /// conventional policy: internal compaction never runs and the picker's
  /// eviction gate is a table count — a major compaction of the WHOLE
  /// level-0 triggers when any partition accumulates `l0_table_trigger`
  /// tables (the PMBlade-PM, PMB-P and PMBlade-SSD configurations).
  bool enable_cost_model = true;
  uint32_t l0_table_trigger = 8;
  CostModelParams cost;
  /// Internal compaction output table target size.
  uint64_t internal_table_target_bytes = 4ull << 20;
  MajorCompactionOptions major;

  // ---- compaction scheduling ----
  /// Size of the compaction scheduler's worker pool. 1 (the default) keeps
  /// the historical single-worker pipeline. With N > 1, independent
  /// Algorithm-1 checks run concurrently: each check CLAIMS the dirty
  /// partitions no other worker holds, so two workers never compact the
  /// same partition, while install + manifest commits stay serialized under
  /// the DB mutex. Manual compactions still run exclusively (no concurrent
  /// background job).
  int compaction_workers = 1;
  /// Upper bound on key-range subcompactions per major-compaction victim:
  /// a victim whose level-1 run (or sorted run) spans multiple tables is
  /// split at table boundaries into up to this many disjoint key-range
  /// slices, merged as independent subtasks and stitched back — in slice
  /// order — into one level-1 run under the same atomic manifest commit.
  /// 1 (the default) keeps the historical one-slice-per-victim shape.
  int max_subcompactions = 1;

  // ---- SSTables / read path ----
  size_t block_size = 4096;
  /// Bloom bits per key for SSTable filter blocks AND the DRAM whole-table
  /// filters built over PM level-0 tables. <= 0 disables all filters (the
  /// no-filter baseline for benchmarking).
  int bloom_bits_per_key = 10;
  /// SST block cache capacity. 0 disables the cache entirely.
  size_t block_cache_bytes = 8 << 20;

  // ---- memory arbitration ----
  /// One DRAM budget the MemoryArbiter re-divides at runtime between the
  /// memtable quota, the SST block cache and the Eq. 3 keep-set target
  /// (τ_t). 0 disables the arbiter: memtable_bytes / block_cache_bytes /
  /// cost.tau_t stay fixed at their configured values. When set, those
  /// three values seed the initial split and the remainder (if any) goes
  /// to the keep-set.
  uint64_t memory_budget_bytes = 0;
  /// Period of the arbiter's feedback tick.
  uint64_t arbiter_interval_ms = 250;

  // ---- observability ----
  /// Capacity of the built-in trace ring (the last N engine events kept for
  /// "pmblade.trace.json" and the stats exporters). 0 disables tracing
  /// entirely — no listener subscribes, so event emission sites reduce to
  /// one relaxed atomic load.
  size_t trace_ring_capacity = 256;

  // ---- misc ----
  Logger* logger = nullptr;  // defaults to NullLogger()
  Clock* clock = nullptr;    // defaults to SystemClock()
  /// Create the DB if missing; error if it exists and this is false... both
  /// default to the forgiving behaviour.
  bool create_if_missing = true;
  bool error_if_exists = false;

  /// Fills unset pointers with defaults; validates invariants.
  Status Sanitize();
};

struct ReadOptions {
  /// 0 = read at the latest sequence; otherwise a snapshot sequence obtained
  /// from DB::GetSnapshot().
  uint64_t snapshot = 0;
};

struct WriteOptions {
  /// Sync the WAL before acknowledging (overrides Options::sync_wal when
  /// true). Under group commit the fsync is amortized: the commit group this
  /// write lands in syncs once, covering every member (see
  /// Options::sync_wal for the full semantics).
  bool sync = false;
};

/// Instantaneous state of the write path's backpressure machinery (the
/// slowdown-then-stop ladder documented at Options::write_slowdown_watermark),
/// cheap enough to poll per request. Admission controllers — the RESP
/// server's in particular — use it to shed or delay work BEFORE a request
/// ties up a thread sleeping inside DB::Write.
enum class WritePressure {
  kNone = 0,      // writes proceed at full speed
  kSlowdown = 1,  // flush is behind; each write eats a one-off delay
  kStall = 2,     // both memtables full (or the engine's background error
                  // is set); writers block until the flush drains
};

const char* WritePressureName(WritePressure pressure);

}  // namespace pmblade

#endif  // PMBLADE_CORE_OPTIONS_H_
