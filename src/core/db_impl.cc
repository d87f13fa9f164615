#include "core/db_impl.h"

#include <algorithm>
#include <thread>

#include "compaction/merging_iterator.h"
#include "core/properties.h"
#include "core/sharded_db.h"
#include "core/version.h"
#include "memtable/txn_record.h"
#include "obs/exporter.h"
#include "pmtable/array_table.h"
#include "pmtable/snappy_table.h"
#include "sstable/ssd_l0_table.h"
#include "util/coding.h"
#include "util/sync_point.h"

namespace pmblade {

namespace {

std::string WalFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/wal-%06llu.log",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string SstFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/%06llu.sst",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

/// Bounds a sorted internal-key iterator to user keys < `end` (empty end =
/// unbounded). Used to slice the immutable memtable per partition.
class BoundedIterator final : public Iterator {
 public:
  BoundedIterator(Iterator* base, std::string end_user_key)
      : base_(base), end_(std::move(end_user_key)) {}

  bool Valid() const override {
    if (!base_->Valid()) return false;
    if (end_.empty()) return true;
    return ExtractUserKey(base_->key()).compare(Slice(end_)) < 0;
  }
  void SeekToFirst() override {}  // base pre-positioned by the caller
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override { base_->Next(); }
  void Prev() override {}
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  Iterator* base_;
  std::string end_;
};

/// Clips an owned sorted internal-key iterator to the user-key range
/// [begin, end) — empty bound = unbounded. Subcompaction slices wrap their
/// merged input in one of these: boundaries compare USER keys, so every
/// version of a user key lands in exactly one slice and the per-slice dedup
/// and tombstone logic in ProcessSlice stays correct.
class RangeClippedIterator final : public Iterator {
 public:
  RangeClippedIterator(Iterator* base, std::string begin_user_key,
                       std::string end_user_key)
      : base_(base),
        begin_(std::move(begin_user_key)),
        end_(std::move(end_user_key)) {}

  bool Valid() const override {
    if (!base_->Valid()) return false;
    if (end_.empty()) return true;
    return ExtractUserKey(base_->key()).compare(Slice(end_)) < 0;
  }
  void SeekToFirst() override {
    if (begin_.empty()) {
      base_->SeekToFirst();
    } else {
      // Position at the first entry whose user key >= begin_: seek with the
      // largest tag so no version of begin_ itself is skipped.
      std::string target;
      AppendInternalKey(&target, Slice(begin_), kMaxSequenceNumber,
                        kValueTypeForSeek);
      base_->Seek(Slice(target));
    }
  }
  void SeekToLast() override {}  // forward-only, like the merge that reads it
  void Seek(const Slice&) override {}
  void Next() override { base_->Next(); }
  void Prev() override {}
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> base_;
  std::string begin_;
  std::string end_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Open / Init / recovery
// ---------------------------------------------------------------------------

Status DB::Open(const Options& options, const std::string& dbname,
                std::unique_ptr<DB>* db) {
  db->reset();
  if (options.num_shards > 1) {
    auto sharded = std::make_unique<ShardedDB>(options, dbname);
    PMBLADE_RETURN_IF_ERROR(sharded->Init());
    *db = std::move(sharded);
    return Status::OK();
  }
  // A directory pinned by a ShardedDB cannot be opened single-shard: the
  // data lives in shard-<i> subdirectories the classic engine would
  // silently ignore, presenting an empty DB.
  {
    Env* env = options.env != nullptr ? options.env : PosixEnv();
    const std::string marker = dbname + "/SHARDS";
    if (env->FileExists(marker)) {
      std::string pinned;
      (void)ReadFileToString(env, marker, &pinned);
      return Status::InvalidArgument(
          dbname + " was created with num_shards=" + pinned +
          "; open it with that shard count");
    }
  }
  auto impl = std::make_unique<DBImpl>(options, dbname);
  PMBLADE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

Status DestroyDB(const Options& options, const std::string& dbname) {
  Env* env = options.env != nullptr ? options.env : PosixEnv();
  if (!options.pm_pool_path.empty()) {
    if (env->FileExists(options.pm_pool_path)) {
      env->RemoveFile(options.pm_pool_path);
    }
    // A sharded DB opened with an explicit pool path suffixes it per shard.
    for (uint32_t i = 0; i < options.num_shards; ++i) {
      const std::string shard_pool =
          ShardedDB::ShardPmPoolPath(options.pm_pool_path, i);
      if (env->FileExists(shard_pool)) env->RemoveFile(shard_pool);
    }
  }
  if (!env->FileExists(dbname)) return Status::OK();
  return env->RemoveDirRecursively(dbname);
}

DBImpl::DBImpl(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname), icmp_(BytewiseComparator()) {}

DBImpl::~DBImpl() {
  // Join the arbiter thread first: its callbacks touch the metrics
  // registry, the block cache and the cost model, all torn down below.
  if (arbiter_ != nullptr) arbiter_->Stop();
  // The SSD model may be caller-owned and outlive this DB; detach our bus
  // before it dies.
  if (model_ != nullptr) model_->set_event_bus(nullptr);
  // Drain the background flush before tearing anything down (the job takes
  // mu_ itself, so wait without holding it). This must precede the
  // scheduler shutdown: any flush may enqueue a check.
  if (flush_pool_ != nullptr) {
    flush_pool_->Wait();
    flush_pool_.reset();
  }
  // Stop the compaction worker: the in-flight job (which takes mu_ itself)
  // finishes, queued checks are dropped — compaction is redoable, the next
  // open re-evaluates.
  if (compaction_scheduler_ != nullptr) compaction_scheduler_->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending_markers_.empty() && bg_error_.ok()) {
    // Unsynced, as every marker is: a clean reopen then replays the
    // commits instead of resolving them. Failure only leaves the txns in
    // doubt, and they resolve to commit.
    std::vector<PendingMarker> landed;
    uint64_t ticket = 0;
    AppendToWal(nullptr, 0, &landed, &ticket);
  }
  if (wal_file_ != nullptr) wal_file_->Close();
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
}

Status DBImpl::Init() {
  PMBLADE_RETURN_IF_ERROR(options_.Sanitize());
  env_ = options_.env;
  raw_env_ = options_.raw_env;
  clock_ = options_.clock;

  if (env_->FileExists(dbname_) && options_.error_if_exists) {
    return Status::InvalidArgument(dbname_ + " already exists");
  }
  if (!env_->FileExists(dbname_)) {
    if (!options_.create_if_missing) {
      return Status::NotFound(dbname_ + " does not exist");
    }
  }
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));

  if (options_.ssd_model != nullptr) {
    model_ = options_.ssd_model;
  } else {
    SsdModelOptions mopts;
    mopts.inject_latency = false;
    mopts.clock = clock_;
    owned_model_.reset(new SsdModel(mopts));
    model_ = owned_model_.get();
  }

  // bloom_bits_per_key <= 0 is the no-filter baseline; block_cache_bytes
  // == 0 the no-cache one (both used by benchmark A/B runs).
  if (options_.bloom_bits_per_key > 0) {
    filter_policy_.reset(new BloomFilterPolicy(options_.bloom_bits_per_key));
  }
  if (options_.shared_block_cache != nullptr) {
    block_cache_ = options_.shared_block_cache;  // ShardedDB-owned
  } else if (options_.block_cache_bytes > 0) {
    owned_block_cache_.reset(new BlockCache(options_.block_cache_bytes));
    block_cache_ = owned_block_cache_.get();
  }
  memtable_limit_.store(options_.memtable_bytes, std::memory_order_relaxed);

  // PM pool (always opened; cheap when unused by the layout).
  std::string pool_path = options_.pm_pool_path.empty()
                              ? dbname_ + "/pool.pm"
                              : options_.pm_pool_path;
  PmPoolOptions popts;
  popts.capacity = options_.pm_pool_capacity;
  popts.latency = options_.pm_latency;
  popts.clock = clock_;
  popts.crash_sim = options_.pm_crash_sim;
  PMBLADE_RETURN_IF_ERROR(PmPool::Open(pool_path, popts, &pool_));
  wal_env_.reset(new PmLogEnv(pool_.get(), env_, options_.wal_in_pm));

  // Factories. Level-1 is always SSTables; level-0 layout is configurable.
  L0FactoryOptions l1opts;
  l1opts.layout = L0Layout::kSstable;
  l1opts.icmp = &icmp_;
  l1opts.filter_policy = filter_policy_.get();
  l1opts.block_cache = block_cache_;
  l1opts.block_size = options_.block_size;
  l1opts.ssd_dir = dbname_;
  l1_factory_.reset(new L0TableFactory(l1opts, pool_.get(), env_));

  if (options_.l0_layout == L0Layout::kSstable) {
    l0_factory_.reset();  // level-0 shares the level-1 factory
  } else {
    L0FactoryOptions l0opts = l1opts;
    l0opts.layout = options_.l0_layout;
    l0opts.pm_table = options_.pm_table;
    l0_factory_.reset(new L0TableFactory(l0opts, pool_.get(), env_));
  }

  cost_model_.reset(new CostModel(options_.cost));

  // The compaction policy. Sanitize already rejected unknown names, but the
  // factory revalidates so a direct DBImpl construction fails loudly too.
  {
    CompactionPolicyOptions popts_policy;
    popts_policy.policy = options_.compaction_policy;
    popts_policy.size_ratio = options_.compaction_size_ratio;
    popts_policy.max_ssd_levels = options_.max_ssd_levels;
    popts_policy.adaptive_tau_t = options_.adaptive_tau_t;
    popts_policy.tau_t_max_factor = options_.tau_t_max_factor;
    PMBLADE_RETURN_IF_ERROR(
        NewCompactionPicker(popts_policy, cost_model_.get(), &picker_));
  }

  // ---- observability wiring ----
  if (options_.trace_ring_capacity > 0) {
    trace_.reset(new obs::TraceRecorder(options_.trace_ring_capacity));
    events_.Subscribe(trace_.get());
  }
  stats_.RegisterWith(&metrics_);
  pool_->RegisterMetrics(&metrics_);
  model_->RegisterMetrics(&metrics_);
  model_->set_event_bus(&events_);
  // Cost-model accounting counters, cached so the compaction path (which
  // runs under mu_) never touches the registry lock.
  decision_counter_ = metrics_.GetCounter("pmblade.cost.decisions");
  eq1_trigger_counter_ = metrics_.GetCounter("pmblade.cost.eq1_triggered");
  eq2_trigger_counter_ = metrics_.GetCounter("pmblade.cost.eq2_triggered");
  keep_set_counter_ = metrics_.GetCounter("pmblade.cost.keep_set_selections");
  wal_sync_counter_ = metrics_.GetCounter("pmblade.wal.syncs");
  wal_append_hist_ = metrics_.GetHistogram("pmblade.wal.append_nanos");
  metrics_.RegisterGaugeCallback("pmblade.wal.pm_bytes", [this] {
    return static_cast<double>(wal_env_->SegmentBytes());
  });
  // Write-pipeline instruments: group-commit amortization and backpressure.
  group_counter_ = metrics_.GetCounter("pmblade.write.groups");
  group_write_counter_ = metrics_.GetCounter("pmblade.write.group_writes");
  group_size_hist_ = metrics_.GetHistogram("pmblade.write.group_size");
  slowdown_counter_ = metrics_.GetCounter("pmblade.write.slowdowns");
  stall_counter_ = metrics_.GetCounter("pmblade.write.stalls");
  stall_nanos_counter_ = metrics_.GetCounter("pmblade.write.stall_nanos");
  bg_flush_counter_ = metrics_.GetCounter("pmblade.flush.bg_flushes");
  // Two-phase-commit instruments (stay at zero on the single-shard path).
  txn_prepared_counter_ = metrics_.GetCounter("pmblade.txn.prepared");
  txn_committed_counter_ = metrics_.GetCounter("pmblade.txn.committed");
  txn_rolled_back_counter_ = metrics_.GetCounter("pmblade.txn.rolled_back");
  metrics_.RegisterGaugeCallback("pmblade.write.writes_per_sync", [this] {
    uint64_t syncs = wal_sync_counter_->Value();
    if (syncs == 0) return 0.0;
    return static_cast<double>(group_write_counter_->Value()) /
           static_cast<double>(syncs);
  });
  metrics_.RegisterGaugeCallback("pmblade.write.pressure", [this] {
    return static_cast<double>(static_cast<int>(GetWritePressure()));
  });
  metrics_.RegisterGaugeCallback("pmblade.memtable.limit", [this] {
    return static_cast<double>(
        memtable_limit_.load(std::memory_order_relaxed));
  });
  metrics_.RegisterGaugeCallback("pmblade.flush.queue_depth", [this] {
    return flush_pool_ != nullptr
               ? static_cast<double>(flush_pool_->PendingTasks())
               : 0.0;
  });
  metrics_.RegisterGaugeCallback("pmblade.io.q_flush", [this] {
    int q = options_.major.max_io_q;
    int q_comp = model_->Inflight(IoClass::kCompaction);
    int q_cli = model_->Inflight(IoClass::kClient);
    return static_cast<double>(std::max(q - q_comp - q_cli, 0));
  });
  // The policy ordinal (see CompactionPolicyKind).
  metrics_.RegisterGaugeCallback("pmblade.policy", [this] {
    return static_cast<double>(static_cast<int>(picker_->kind()));
  });
  metrics_.GetGauge("pmblade.shards")->Set(1);

  // Gauges over state guarded by mu_. Callbacks run outside the registry
  // lock (see MetricsRegistry::Snapshot), so locking mu_ here is safe.
  auto locked_gauge = [this](const std::string& name,
                             std::function<uint64_t()> fn) {
    metrics_.RegisterGaugeCallback(name, [this, fn = std::move(fn)] {
      std::lock_guard<std::mutex> lock(mu_);
      return static_cast<double>(fn());
    });
  };
  auto partition_gauge = [this, &locked_gauge](
                             const char* name,
                             uint64_t (*fn)(const Partition&)) {
    locked_gauge(name, [this, fn] {
      uint64_t total = 0;
      for (const auto& p : partitions_) total += fn(*p);
      return total;
    });
  };
  locked_gauge("pmblade.write.queue_depth",
               [this] { return uint64_t{writers_.size()}; });
  locked_gauge("pmblade.txn.pending", [this] {
    uint64_t pending = 0;
    for (const auto& entry : txns_) {
      if (!entry.second.committed) ++pending;
    }
    return pending;
  });
  locked_gauge("pmblade.txn.retained", [this] {
    return uint64_t{txns_.size() + replay_committed_.size() +
                    replay_rolled_back_.size()};
  });
  locked_gauge("pmblade.snapshots.open",
               [this] { return uint64_t{live_snapshots_.size()}; });
  locked_gauge("pmblade.lsm.num_partitions",
               [this] { return uint64_t{partitions_.size()}; });
  // l1_bytes covers the WHOLE SSD run stack (all levels): the historical
  // name predates policies that hold more than one run.
  partition_gauge("pmblade.lsm.l0_bytes",
                  [](const Partition& p) { return p.L0Bytes(); });
  partition_gauge("pmblade.lsm.l1_bytes",
                  [](const Partition& p) { return p.SsdBytes(); });
  partition_gauge("pmblade.lsm.unsorted_tables", [](const Partition& p) {
    return uint64_t{p.unsorted().size()};
  });
  partition_gauge("pmblade.lsm.sorted_tables", [](const Partition& p) {
    return uint64_t{p.sorted_run().size()};
  });
  partition_gauge("pmblade.lsm.ssd_runs", [](const Partition& p) {
    return uint64_t{p.ssd_runs().size()};
  });
  locked_gauge("pmblade.lsm.max_ssd_level", [this] {
    uint64_t deepest = 0;
    for (const auto& p : partitions_) {
      deepest = std::max<uint64_t>(deepest, p->MaxSsdLevel());
    }
    return deepest;
  });
  // Per-level run/file/byte shape (level 0 = PM level-0; SSD runs start
  // at 1).
  for (uint32_t level = 0; level <= options_.max_ssd_levels; ++level) {
    const std::string prefix = "pmblade.lsm.level" + std::to_string(level);
    locked_gauge(prefix + ".runs",
                 [this, level] { return LevelShapeLocked(level).runs; });
    locked_gauge(prefix + ".files",
                 [this, level] { return LevelShapeLocked(level).files; });
    locked_gauge(prefix + ".bytes",
                 [this, level] { return LevelShapeLocked(level).bytes; });
  }
  // Route major-compaction instrumentation through our bus/registry.
  options_.major.event_bus = &events_;
  options_.major.metrics = &metrics_;

  // Read-path instruments: bloom probe counters (fed from Get's
  // ReadProbeStats) and block-cache gauges.
  bloom_check_counter_ = metrics_.GetCounter("pmblade.bloom.checks");
  bloom_negative_counter_ = metrics_.GetCounter("pmblade.bloom.negatives");
  bloom_fp_counter_ = metrics_.GetCounter("pmblade.bloom.false_positives");
  // Block-cache gauges read 0 when the cache is off.
  BlockCache* cache = block_cache_;
  auto cache_gauge = [this, cache](const char* name,
                                   uint64_t (*fn)(const BlockCache&)) {
    metrics_.RegisterGaugeCallback(name, [cache, fn] {
      return cache != nullptr ? static_cast<double>(fn(*cache)) : 0.0;
    });
  };
  cache_gauge("pmblade.blockcache.hits",
              [](const BlockCache& c) { return c.hits(); });
  cache_gauge("pmblade.blockcache.misses",
              [](const BlockCache& c) { return c.misses(); });
  cache_gauge("pmblade.blockcache.charge",
              [](const BlockCache& c) { return uint64_t{c.TotalCharge()}; });
  cache_gauge("pmblade.blockcache.capacity",
              [](const BlockCache& c) { return uint64_t{c.capacity()}; });
  // Counted by the memory arbiter when there is one; 0 otherwise.
  metrics_.GetCounter("pmblade.mem.rebalances");

  // Memory arbitration: one budget over {memtable quota, block cache,
  // Eq. 3 keep-set}, retuned by the MemoryArbiter's feedback thread. The
  // configured memtable_bytes/block_cache_bytes/cost.tau_t seed the split;
  // any remainder of the budget lands on the keep-set.
  if (options_.memory_budget_bytes > 0) {
    const uint64_t total = options_.memory_budget_bytes;
    uint64_t floors[mem::kNumComponents];
    uint64_t initial[mem::kNumComponents];
    floors[mem::kMemtable] = std::max<uint64_t>(64 << 10, total / 32);
    floors[mem::kBlockCache] =
        block_cache_ != nullptr ? std::max<uint64_t>(64 << 10, total / 32)
                                : 0;
    floors[mem::kKeepSet] = 4096;
    initial[mem::kMemtable] = options_.memtable_bytes;
    initial[mem::kBlockCache] =
        block_cache_ != nullptr ? options_.block_cache_bytes : 0;
    initial[mem::kKeepSet] = options_.cost.tau_t;
    mem_budget_.reset(new mem::MemoryBudget(total, floors, initial));

    auto apply = [this](int component, uint64_t target) {
      switch (component) {
        case mem::kMemtable:
          memtable_limit_.store(static_cast<size_t>(target),
                                std::memory_order_relaxed);
          break;
        case mem::kBlockCache:
          if (block_cache_ != nullptr) block_cache_->SetCapacity(target);
          break;
        case mem::kKeepSet:
          // 0 would read as "unset" to base_tau_t(); the floor keeps the
          // target positive, but stay safe against direct Transfer calls.
          cost_model_->set_dynamic_tau_t(std::max<uint64_t>(target, 1));
          break;
      }
    };
    // Push the seeded split into the engine (the ctor may have reshaped
    // the configured values to fit the budget and floors).
    for (int c = 0; c < mem::kNumComponents; ++c) {
      apply(c, mem_budget_->target(c));
    }

    mem::ArbiterOptions aopts;
    aopts.interval_ms = options_.arbiter_interval_ms;
    aopts.clock = clock_;
    aopts.metrics = &metrics_;
    aopts.events = &events_;
    aopts.logger = options_.logger;
    arbiter_.reset(new mem::MemoryArbiter(
        aopts, mem_budget_.get(),
        [this] { return mem::ReadArbiterInputs(metrics_); },
        apply));
    arbiter_->Start();
  }

  mem_ = new MemTable(icmp_);
  mem_->Ref();
  flush_pool_.reset(new ThreadPool(1));

  // The dedicated Algorithm-1 worker (see compaction_scheduler.h for the
  // thread/lock model). Created before recovery so manual compactions work
  // immediately after Open.
  CompactionScheduler::Options copts;
  copts.retry_limit = options_.compaction_retry_limit;
  copts.workers = options_.compaction_workers;
  copts.event_bus = &events_;
  copts.metrics = &metrics_;
  copts.clock = clock_;
  copts.logger = options_.logger;
  compaction_scheduler_.reset(new CompactionScheduler(copts));
  compaction_scheduler_->set_check([this] {
    return BackgroundCompactionCheck();
  });
  file_gc_fail_counter_ = metrics_.GetCounter("pmblade.gc.remove_failures");
  subcompaction_counter_ =
      metrics_.GetCounter("pmblade.compaction.subcompactions");
  major_wall_nanos_counter_ =
      metrics_.GetCounter("pmblade.compaction.major.wall_nanos");

  // Live q_cli: when env_ is a SimEnv sharing our model, its file wrappers
  // already classify client I/O into the inflight gauges; otherwise DBImpl
  // registers its own client ops (WAL writes, SSD-resident reads) so the
  // io-gate's q_cli term reflects real foreground pressure instead of a
  // constant 0.
  {
    SimEnv* sim = dynamic_cast<SimEnv*>(env_);
    track_client_io_ = (sim == nullptr || sim->model() != model_);
    track_wal_io_ = track_client_io_ && !options_.wal_in_pm;
  }

  // Recover or bootstrap.
  ManifestState state;
  Status s = ReadManifest(env_, dbname_, &state);
  if (s.ok()) {
    l1_factory_->set_next_file_number(state.next_file_number);
    last_sequence_ = state.last_sequence;
    flushed_sequence_ = state.flushed_sequence;
    PMBLADE_RETURN_IF_ERROR(RecoverPartitions(state));
    if (state.wal_number != 0) {
      PMBLADE_RETURN_IF_ERROR(ReplayWals(state.wal_number));
    }
  } else if (s.IsNotFound()) {
    // Fresh DB: create partitions from the configured boundaries.
    std::string prev;
    for (const auto& boundary : options_.partition_boundaries) {
      partitions_.push_back(std::make_unique<Partition>(
          next_partition_id_++, prev, boundary, clock_));
      prev = boundary;
    }
    partitions_.push_back(std::make_unique<Partition>(
        next_partition_id_++, prev, std::string(), clock_));
    // No manifest means no table is referenced: pool tables or .sst files
    // left by a crash before the very first manifest commit are garbage.
    // Logs are not: their data replays into the memtable.
    for (const auto& info : pool_->ListObjects()) {
      if (info.kind != kPmLogObject) pool_->Free(info.id);
    }
    std::vector<std::string> children;
    if (env_->GetChildren(dbname_, &children).ok()) {
      for (const auto& child : children) {
        if (child.size() > 4 &&
            child.compare(child.size() - 4, 4, ".sst") == 0) {
          env_->RemoveFile(dbname_ + "/" + child);
        }
      }
    }
    PMBLADE_RETURN_IF_ERROR(ReplayWals(0));
  } else {
    return s;
  }

  // The manifest's next_file_number can be STALE: logs rotated after the
  // last manifest commit carry numbers at or above it. Allocating from the
  // stale counter would hand NewWal() the number of a replayed live log and
  // O_TRUNC it — the replayed data would then exist only in DRAM until the
  // next flush. Bump past every replayed log before allocating anything.
  for (uint64_t number : live_wals_) {
    if (number >= l1_factory_->peek_next_file_number()) {
      l1_factory_->set_next_file_number(number + 1);
    }
  }

  PMBLADE_RETURN_IF_ERROR(NewWal());
  live_wals_.push_back(wal_number_);
  return PersistManifest();
}

Status DBImpl::RecoverPartitions(const ManifestState& state) {
  partitions_.clear();

  std::set<uint64_t> referenced_pm_ids;
  std::set<uint64_t> referenced_files;

  TableReaderOptions ropts;
  ropts.comparator = &icmp_;
  ropts.filter_policy = filter_policy_.get();
  ropts.block_cache = block_cache_;

  auto open_pm = [&](uint64_t id, L0TableRef* table) -> Status {
    referenced_pm_ids.insert(id);
    auto objects = pool_->ListObjects();
    uint32_t kind = 0;
    for (const auto& info : objects) {
      if (info.id == id) {
        kind = info.kind;
        break;
      }
    }
    switch (kind) {
      case kPmTableObject: {
        std::shared_ptr<PmTable> t;
        PMBLADE_RETURN_IF_ERROR(PmTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      case kArrayTableObject: {
        std::shared_ptr<ArrayTable> t;
        PMBLADE_RETURN_IF_ERROR(ArrayTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      case kSnappyTableObject:
      case kSnappyGroupTableObject: {
        std::shared_ptr<SnappyTable> t;
        PMBLADE_RETURN_IF_ERROR(SnappyTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      default:
        return Status::Corruption("manifest references missing pm object");
    }
    // The DRAM whole-table bloom is not part of the PM media format;
    // rebuild it by scanning the table (it is immutable from here on), so
    // reopened tables filter exactly like freshly flushed ones.
    if (filter_policy_ != nullptr) {
      (*table)->BuildFilter(filter_policy_.get());
    }
    return Status::OK();
  };

  auto open_sst = [&](uint64_t number, L0TableRef* table) -> Status {
    referenced_files.insert(number);
    TableReaderOptions opts = ropts;
    opts.file_number = number;
    std::shared_ptr<SsdL0Table> t;
    PMBLADE_RETURN_IF_ERROR(SsdL0Table::Open(
        env_, SstFileName(dbname_, number), number, opts, &t));
    *table = std::move(t);
    return Status::OK();
  };

  for (const auto& mp : state.partitions) {
    auto partition = std::make_unique<Partition>(mp.id, mp.begin_key,
                                                 mp.end_key, clock_);
    next_partition_id_ = std::max(next_partition_id_, mp.id + 1);
    for (uint64_t id : mp.unsorted_pm_ids) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_pm(id, &t));
      partition->unsorted().push_back(std::move(t));
    }
    for (uint64_t id : mp.sorted_pm_ids) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_pm(id, &t));
      partition->sorted_run().push_back(std::move(t));
    }
    for (uint64_t number : mp.unsorted_file_numbers) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
      partition->unsorted().push_back(std::move(t));
    }
    for (uint64_t number : mp.sorted_file_numbers) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
      partition->sorted_run().push_back(std::move(t));
    }
    for (const ManifestSsdRun& mrun : mp.ssd_runs) {
      SsdRun run;
      run.level = mrun.level;
      for (uint64_t number : mrun.file_numbers) {
        L0TableRef t;
        PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
        run.tables.push_back(std::move(t));
      }
      partition->ssd_runs().push_back(std::move(run));
    }
    partitions_.push_back(std::move(partition));
  }

  // Garbage-collect pool objects an interrupted compaction left behind.
  // Log segments are never referenced by the manifest; ReplayWals keeps
  // the logs at or above the replay floor and frees the rest.
  for (const auto& info : pool_->ListObjects()) {
    if (info.kind != kPmLogObject && referenced_pm_ids.count(info.id) == 0) {
      pool_->Free(info.id);
    }
  }
  // Garbage-collect orphan .sst files.
  std::vector<std::string> children;
  if (env_->GetChildren(dbname_, &children).ok()) {
    for (const auto& child : children) {
      if (child.size() > 4 &&
          child.compare(child.size() - 4, 4, ".sst") == 0) {
        uint64_t number = strtoull(child.c_str(), nullptr, 10);
        if (referenced_files.count(number) == 0) {
          env_->RemoveFile(dbname_ + "/" + child);
        }
      }
    }
  }
  return Status::OK();
}

Status DBImpl::ReplayWals(uint64_t floor) {
  // The manifest's wal number is a FLOOR: every log >= it may hold
  // acknowledged writes not yet in level-0 tables (with a background flush
  // in flight there can be several — the imm_'s logs plus the active one).
  // Replay them all, ascending, so a crash mid-flush loses nothing; logs
  // below the floor were flushed before the last manifest commit and are
  // garbage-collected here.
  std::vector<uint64_t> numbers;
  std::vector<std::string> children;
  PMBLADE_RETURN_IF_ERROR(wal_env_->GetChildren(dbname_, &children));
  for (const auto& child : children) {
    if (child.size() > 8 && child.compare(0, 4, "wal-") == 0 &&
        child.compare(child.size() - 4, 4, ".log") == 0) {
      uint64_t number = strtoull(child.c_str() + 4, nullptr, 10);
      if (number < floor) {
        wal_env_->RemoveFile(dbname_ + "/" + child);
      } else {
        numbers.push_back(number);
      }
    }
  }
  std::sort(numbers.begin(), numbers.end());

  struct LogReporter : wal::Reader::Reporter {
    Logger* logger;
    void Corruption(size_t bytes, const Status& status) override {
      PMBLADE_WARN(logger, "wal replay dropped %zu bytes: %s", bytes,
                   status.ToString().c_str());
    }
  } reporter;
  reporter.logger = options_.logger;

  // Sequences at or below this were flushed to level-0 before the last
  // manifest commit: a replayed commit marker whose payload falls under it
  // must NOT re-apply (carried fence records can outlive their payload's
  // flush), or the memtable would hold duplicate internal keys. This must
  // be the true flush watermark — the manifest's last_sequence runs ahead
  // of it whenever the memtable holds acknowledged writes, and using that
  // as the floor drops committed payloads on a second recovery.
  const SequenceNumber flushed_floor = flushed_sequence_;

  for (uint64_t number : numbers) {
    std::unique_ptr<SequentialFile> file;
    PMBLADE_RETURN_IF_ERROR(
        wal_env_->NewSequentialFile(WalFileName(dbname_, number), &file));
    wal::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) continue;
      if (IsTxnRecord(record)) {
        TxnRecord txn;
        Status ts = DecodeTxnRecord(record, &txn);
        if (!ts.ok()) {
          PMBLADE_WARN(options_.logger, "wal replay dropped txn record: %s",
                       ts.ToString().c_str());
          continue;
        }
        if (txn.txn_id > max_seen_txn_id_) max_seen_txn_id_ = txn.txn_id;
        switch (txn.type) {
          case TxnRecordType::kPrepare: {
            // Carried copies of an already-committed fence must not demote
            // it back to pending.
            TxnEntry& e = txns_[txn.txn_id];
            if (!e.committed) {
              e.participants = txn.participants;
              e.payload.assign(txn.payload.data(), txn.payload.size());
              e.marker_ticket = 0;  // already durable: it came off disk
            }
            break;
          }
          case TxnRecordType::kCommit: {
            auto it = txns_.find(txn.txn_id);
            if (it == txns_.end()) {
              // Marker-only evidence: the fence was forgotten before the
              // prepare's log died, but the marker outlived it. Keep the
              // verdict for sibling resolution.
              replay_committed_.insert(txn.txn_id);
              break;
            }
            if (!it->second.committed && txn.base_seq > flushed_floor) {
              WriteBatch batch;
              batch.SetContentsFrom(Slice(it->second.payload));
              batch.SetSequence(txn.base_seq);
              Status s = batch.InsertInto(mem_);
              if (!s.ok()) return s;
              SequenceNumber end_seq = txn.base_seq + batch.Count() - 1;
              if (end_seq > last_sequence_) last_sequence_ = end_seq;
            }
            it->second.committed = true;
            it->second.base_seq = txn.base_seq;
            it->second.marker_ticket = 0;
            break;
          }
          case TxnRecordType::kRollback: {
            auto it = txns_.find(txn.txn_id);
            if (it != txns_.end()) {
              if (it->second.committed) break;  // commit evidence wins
              txns_.erase(it);
            }
            replay_rolled_back_.insert(txn.txn_id);
            break;
          }
        }
        continue;
      }
      WriteBatch batch;
      batch.SetContentsFrom(record);
      Status s = batch.InsertInto(mem_);
      if (!s.ok()) return s;
      SequenceNumber end_seq = batch.Sequence() + batch.Count() - 1;
      if (end_seq > last_sequence_) last_sequence_ = end_seq;
    }
    // The replayed log stays live (and in the manifest's floor) until the
    // recovered memtable is flushed; deleting it before then would lose the
    // data on a second crash.
    live_wals_.push_back(number);
  }
  return Status::OK();
}

Status DBImpl::NewWal() {
  // Only called from a write-leader context (or Init), so no append can be
  // racing the rotation. Old logs are deleted when their flush commits.
  uint64_t new_number = l1_factory_->NextFileNumber();
  std::unique_ptr<WritableFile> file;
  PMBLADE_RETURN_IF_ERROR(
      wal_env_->NewWritableFile(WalFileName(dbname_, new_number), &file));
  if (wal_file_ != nullptr) {
    // Sync the rotated-out log before abandoning it. Sync writes only ever
    // fsync the CURRENT wal, yet a sync ack promises durability for the
    // whole write history — any unsynced tail left behind here would be
    // covered by that promise but dropped by a power cut.
    PMBLADE_RETURN_IF_ERROR(wal_file_->Sync());
    wal_synced_ticket_.store(wal_append_ticket_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    PMBLADE_SYNC_POINT("DBImpl::NewWal:OldWalSynced");
    wal_file_->Close();
  }
  wal_number_ = new_number;
  wal_file_ = std::move(file);
  wal_.reset(new wal::Writer(wal_file_.get()));
  return CarryTxnRecordsLocked();
}

Status DBImpl::CarryTxnRecordsLocked() {
  // Re-home every retained txn record into the fresh WAL: pending prepares
  // (their payload is nowhere else until committed+flushed) and committed
  // fences (siblings' recovery may still need the commit evidence). The
  // copies in the rotated-out logs die when their flush commits, so the new
  // WAL must hold these durably first — hence the fsync when anything was
  // carried. Every committed fence gets its kCommit record here, so the
  // markers still waiting for an append are carried too.
  pending_markers_.clear();
  if (txns_.empty()) return Status::OK();
  std::string record;
  for (auto& entry : txns_) {
    EncodePrepareRecord(entry.first, entry.second.participants,
                        Slice(entry.second.payload), &record);
    PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(record));
    wal_append_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (entry.second.committed) {
      EncodeCommitRecord(entry.first, entry.second.base_seq, &record);
      PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(record));
      wal_append_ticket_.fetch_add(1, std::memory_order_relaxed);
    }
    entry.second.marker_ticket =
        wal_append_ticket_.load(std::memory_order_relaxed);
  }
  PMBLADE_RETURN_IF_ERROR(wal_file_->Sync());
  wal_synced_ticket_.store(wal_append_ticket_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  PMBLADE_SYNC_POINT("DBImpl::NewWal:TxnRecordsCarried");
  return Status::OK();
}

Status DBImpl::PersistManifest() {
  ManifestState state;
  state.next_file_number = l1_factory_->peek_next_file_number();
  state.last_sequence = last_sequence_;
  state.flushed_sequence = flushed_sequence_;
  // Replay floor: the oldest log still holding un-flushed data.
  state.wal_number = live_wals_.empty() ? wal_number_ : live_wals_.front();
  for (const auto& partition : partitions_) {
    ManifestPartition mp;
    mp.id = partition->id();
    mp.begin_key = partition->begin_key();
    mp.end_key = partition->end_key();
    const bool ssd_l0 = options_.l0_layout == L0Layout::kSstable;
    for (const auto& table : partition->unsorted()) {
      (ssd_l0 ? mp.unsorted_file_numbers : mp.unsorted_pm_ids)
          .push_back(table->id());
    }
    for (const auto& table : partition->sorted_run()) {
      (ssd_l0 ? mp.sorted_file_numbers : mp.sorted_pm_ids)
          .push_back(table->id());
    }
    for (const SsdRun& run : partition->ssd_runs()) {
      ManifestSsdRun mrun;
      mrun.level = run.level;
      for (const auto& table : run.tables) {
        mrun.file_numbers.push_back(table->id());
      }
      mp.ssd_runs.push_back(std::move(mrun));
    }
    state.partitions.push_back(std::move(mp));
  }
  return WriteManifest(env_, dbname_, state);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  const uint64_t start = clock_->NowNanos();
  WriterState w(updates, options.sync || options_.sync_wal);
  Status status = WriteInternal(options, w);
  if (updates != nullptr) {
    stats_.RecordWrite(updates->ApproximateSize(),
                       clock_->NowNanos() - start);
  }
  return status;
}

Status DBImpl::WriteInternal(const WriteOptions& options, WriterState& w) {
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    // A leader committed this write as part of its group.
    lock.unlock();
    AwaitWakePins(w);
    return w.status;
  }

  // This thread is the group leader: it owns the WAL and the memtable until
  // it pops itself off the queue, which is what makes the unlocked section
  // below single-writer.
  Status status;
  WriterState* last_writer = &w;
  if (w.kind != WriteKind::kBatch) {
    // A txn op leads a txn group: every txn op queued directly behind it
    // shares one WAL append run and one fsync. BuildBatchGroup still never
    // coalesces a kBatch group into or past a txn op.
    status = TxnGroupWriteLocked(lock, w, &last_writer);
  } else {
  status = MakeRoomForWrite(lock, /*force=*/w.batch == nullptr);
  SequenceNumber last_sequence = last_sequence_;
  if (status.ok() && w.batch != nullptr) {
    bool group_sync = false;
    size_t group_members = 0;
    WriteBatch* group = BuildBatchGroup(&last_writer, &group_sync,
                                        &group_members);
    group->SetSequence(last_sequence + 1);
    last_sequence += group->Count();

    MemTable* mem = mem_;
    bool wal_error = false;
    std::vector<PendingMarker> landed;  // commit markers this append carried
    {
      // WAL append, ONE fsync for the whole group, Eq. 2 probes and the
      // memtable insert all run outside mu_: readers and queueing writers
      // proceed concurrently.
      lock.unlock();
      {
        // An SSD WAL append/fsync registers one client op so the
        // io-gate's q_cli gauge sees live foreground write pressure (no-op
        // when the SimEnv already classifies this I/O).
        ScopedExternalIo wal_io(track_wal_io_ ? model_ : nullptr,
                                IoClass::kClient);
        const Slice rep(group->rep());
        uint64_t append_ticket = 0;
        status = AppendToWal(&rep, 1, &landed, &append_ticket);
        PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalAppend");
        if (status.ok() && group_sync) {
          const uint64_t sync_start = clock_->NowNanos();
          status = wal_file_->Sync();
          if (status.ok()) {
            wal_sync_counter_->Inc();
            wal_synced_ticket_.store(append_ticket,
                                     std::memory_order_relaxed);
            PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalSync");
            if (events_.active()) {
              events_.Emit(
                  obs::Event(obs::EventType::kWalSync, clock_->NowNanos())
                      .With("bytes", static_cast<double>(group->rep().size()))
                      .With("writes", static_cast<double>(group_members))
                      .With("duration_nanos",
                            static_cast<double>(clock_->NowNanos() -
                                                sync_start)));
            }
          }
        }
        wal_error = !status.ok();
      }
      if (status.ok()) {
        NoteGroupWrites(*group, mem);
        status = group->InsertInto(mem);
      }
      lock.lock();
    }
    if (wal_error) {
      HandleWalErrorLocked(status);
    } else {
      NoteMarkersLandedLocked(landed);
    }
    if (status.ok()) {
      // Publish the group's sequences only now that every entry is in the
      // memtable: a reader snapshotting last_sequence_ can never observe a
      // torn group.
      PMBLADE_SYNC_POINT("DBImpl::Write:BeforePublish");
      last_sequence_ = last_sequence;
      group_counter_->Inc();
      group_write_counter_->Inc(group_members);
      group_size_hist_->Observe(group_members);
    }
    if (group == &group_batch_) group_batch_.Clear();
  }
  }

  // Wake everyone the group covered (they return with the group status) and
  // promote the next queued writer to leader. The signals go out after mu_
  // is released: a woken writer that preempts this thread then finds mu_
  // free, instead of blocking on it while the preempted holder waits for a
  // CPU, which stalled every write on the DB for up to a scheduler tick.
  WriterState* wake = nullptr;
  WriterState** wake_tail = &wake;
  auto enlist = [&wake_tail](WriterState* x) {
    x->wake_pins.fetch_add(1, std::memory_order_relaxed);
    x->next_wake = nullptr;
    *wake_tail = x;
    wake_tail = &x->next_wake;
  };
  while (true) {
    WriterState* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      if (!ready->own_status) ready->status = status;
      ready->done = true;
      enlist(ready);
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) enlist(writers_.front());
  lock.unlock();
  while (wake != nullptr) {
    WriterState* x = wake;
    wake = x->next_wake;  // read before the unpin: x may then be destroyed
    x->cv.notify_one();
    x->wake_pins.fetch_sub(1, std::memory_order_release);
  }

  AwaitWakePins(w);
  return status;
}

void DBImpl::AwaitWakePins(const WriterState& w) {
  // Only a leader preempted between its notify and its unpin keeps a pin
  // for long; the common case is one load.
  while (w.wake_pins.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

Status DBImpl::AppendToWal(const Slice* records, size_t n,
                           std::vector<PendingMarker>* landed,
                           uint64_t* first_ticket) {
  const uint64_t start = clock_->NowNanos();
  if (pending_markers_.empty()) {
    Status s = wal_->AddRecords(records, n);
    *first_ticket =
        wal_append_ticket_.fetch_add(n, std::memory_order_relaxed) + 1;
    wal_append_hist_->Observe(clock_->NowNanos() - start);
    return s;
  }
  landed->swap(pending_markers_);
  std::vector<Slice> run;
  run.reserve(landed->size() + n);
  for (const PendingMarker& m : *landed) run.emplace_back(m.record);
  run.insert(run.end(), records, records + n);
  Status s = wal_->AddRecords(run.data(), run.size());
  const uint64_t first =
      wal_append_ticket_.fetch_add(run.size(), std::memory_order_relaxed) + 1;
  wal_append_hist_->Observe(clock_->NowNanos() - start);
  if (!s.ok()) {
    // The markers did not land: they wait for the next append.
    pending_markers_.swap(*landed);
    landed->clear();
    *first_ticket = first;
    return s;
  }
  for (size_t i = 0; i < landed->size(); ++i) {
    (*landed)[i].ticket = first + i;
    PMBLADE_SYNC_POINT("DBImpl::CommitTxn:AfterAppend");
  }
  *first_ticket = first + landed->size();
  return s;
}

void DBImpl::HandleWalErrorLocked(const Status& s) {
  if (!s.IsBusy()) {
    bg_error_ = s;
    return;
  }
  if (imm_ == nullptr && mem_->num_entries() > 0) {
    Status rs = SwitchMemTableLocked();
    if (!rs.ok() && !rs.IsBusy()) bg_error_ = rs;
  }
}

void DBImpl::NoteMarkersLandedLocked(
    const std::vector<PendingMarker>& landed) {
  for (const PendingMarker& m : landed) {
    // A fence stays until its marker is durable, so it is still here.
    auto it = txns_.find(m.txn_id);
    if (it != txns_.end()) it->second.marker_ticket = m.ticket;
  }
}

// ---------------------------------------------------------------------------
// Cross-shard two-phase commit (see the header block and sharded_db.cc)
// ---------------------------------------------------------------------------

Status DBImpl::PrepareTxn(const WriteOptions& options, uint64_t txn_id,
                          const std::vector<uint32_t>& participants,
                          WriteBatch* batch) {
  if (batch == nullptr || batch->Count() == 0) {
    return Status::InvalidArgument("empty txn sub-batch");
  }
  // Prepares are ALWAYS fsynced, regardless of the user's sync flag: the
  // all-prepares-durable state is what lets recovery COMMIT an in-doubt
  // transaction, so an unsynced prepare would turn "resolution commits"
  // into data loss on the other shards.
  WriterState w(WriteKind::kTxnPrepare, txn_id, batch, /*sync=*/true);
  w.participants = &participants;
  return WriteInternal(options, w);
}

Status DBImpl::CommitTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnCommit, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(options, w);
}

Status DBImpl::RollbackTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnRollback, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(options, w);
}

Status DBImpl::TxnGroupWriteLocked(std::unique_lock<std::mutex>& lock,
                                   WriterState& leader,
                                   WriterState** last_writer) {
  // Coalesce the leader with every txn op queued directly behind it — the
  // txn mirror of BuildBatchGroup. Concurrent transactions' records share
  // one WAL append run and at most ONE fsync; without this, N concurrent
  // cross-shard writers pay N sequential prepare fsyncs per shard and 2PC
  // loses the latency the parallel fan-out bought.
  std::vector<WriterState*> group;
  group.push_back(&leader);
  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    if ((*it)->kind == WriteKind::kBatch) break;
    group.push_back(*it);
  }
  *last_writer = group.back();

  bool has_commit = false;
  for (WriterState* m : group) {
    if (m->kind == WriteKind::kTxnCommit) has_commit = true;
  }
  if (has_commit) {
    // Commits insert buffered payloads into the memtable; make room the
    // same way a regular group does (may rotate the WAL, which carries the
    // pending prepares along).
    PMBLADE_RETURN_IF_ERROR(MakeRoomForWrite(lock, /*force=*/false));
    // MakeRoomForWrite may have dropped the lock; scoop up txn ops that
    // queued behind the group in the meantime.
    group.clear();
    group.push_back(&leader);
    for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
      if ((*it)->kind == WriteKind::kBatch) break;
      group.push_back(*it);
    }
    *last_writer = group.back();
  } else if (!bg_error_.ok()) {
    return bg_error_;
  }

  // Stage every member's WAL record under the lock. Members whose op
  // resolves without IO (unknown-txn commit, idempotent re-commit) get
  // their individual status here and are excluded from the append run.
  struct Staged {
    WriterState* w;
    std::string record;
    WriteBatch payload;           // commit only
    SequenceNumber base_seq = 0;  // commit only
    uint64_t ticket = 0;
  };
  std::vector<Staged> staged;
  staged.reserve(group.size());
  SequenceNumber next_seq = last_sequence_;  // running cursor for commits
  bool group_sync = false;
  bool staged_commit = false;
  MemTable* mem = mem_;
  for (WriterState* m : group) {
    switch (m->kind) {
      case WriteKind::kTxnPrepare: {
        staged.emplace_back();
        Staged& s = staged.back();
        s.w = m;
        EncodePrepareRecord(m->txn_id, *m->participants, m->batch->rep(),
                            &s.record);
        group_sync = group_sync || m->sync;
        break;
      }
      case WriteKind::kTxnCommit: {
        auto it = txns_.find(m->txn_id);
        if (it == txns_.end()) {
          m->own_status = true;
          m->status = Status::InvalidArgument("commit of unknown txn");
          break;
        }
        if (it->second.committed) {  // idempotent
          m->own_status = true;
          m->status = Status::OK();
          break;
        }
        staged.emplace_back();
        Staged& s = staged.back();
        s.w = m;
        s.payload.SetContentsFrom(Slice(it->second.payload));
        s.base_seq = next_seq + 1;
        s.payload.SetSequence(s.base_seq);
        next_seq += s.payload.Count();
        EncodeCommitRecord(m->txn_id, s.base_seq, &s.record);
        group_sync = group_sync || m->sync;
        staged_commit = true;
        break;
      }
      case WriteKind::kTxnRollback: {
        staged.emplace_back();
        Staged& s = staged.back();
        s.w = m;
        EncodeRollbackRecord(m->txn_id, &s.record);
        group_sync = group_sync || m->sync;
        break;
      }
      case WriteKind::kBatch:
        break;  // unreachable: collection stops at the first kBatch
    }
  }
  const bool leader_validated_out = leader.own_status;
  // A group of nothing but unsynced commits is memory-only: no device
  // write, no fsync. Its markers join pending_markers_ and go out with the
  // next append. Any other group appends every staged record in group
  // order, after the pending markers.
  bool memory_only = true;
  for (const Staged& s : staged) {
    if (s.w->kind != WriteKind::kTxnCommit || s.w->sync) memory_only = false;
  }

  Status status;
  std::vector<PendingMarker> landed;  // older markers this append carried
  if (!staged.empty()) {
    bool wal_error = false;
    lock.unlock();
    if (!memory_only) {
      ScopedExternalIo wal_io(track_wal_io_ ? model_ : nullptr,
                              IoClass::kClient);
      // The whole staged run is one device write; each record still gets
      // its own durability ticket.
      std::vector<Slice> records;
      records.reserve(staged.size());
      for (const Staged& s : staged) records.emplace_back(s.record);
      uint64_t first_ticket = 0;
      status = AppendToWal(records.data(), records.size(), &landed,
                           &first_ticket);
      for (size_t i = 0; i < staged.size(); ++i) {
        staged[i].ticket = first_ticket + i;
        if (status.ok() && staged[i].w->kind == WriteKind::kTxnCommit) {
          PMBLADE_SYNC_POINT("DBImpl::CommitTxn:AfterAppend");
        }
      }
      if (status.ok() && group_sync) {
        status = wal_file_->Sync();
        if (status.ok()) {
          wal_sync_counter_->Inc();
          wal_synced_ticket_.store(staged.back().ticket,
                                   std::memory_order_relaxed);
          for (Staged& s : staged) {
            if (s.w->kind == WriteKind::kTxnPrepare) {
              PMBLADE_SYNC_POINT("DBImpl::PrepareTxn:AfterSync");
            }
          }
        }
      }
      wal_error = !status.ok();
    }
    if (status.ok()) {
      for (Staged& s : staged) {
        if (s.w->kind != WriteKind::kTxnCommit) continue;
        NoteGroupWrites(s.payload, mem);
        status = s.payload.InsertInto(mem);
        if (!status.ok()) break;
      }
    }
    if (status.ok() && memory_only) {
      for (Staged& s : staged) {
        pending_markers_.push_back({s.w->txn_id, std::move(s.record)});
        s.ticket = kMarkerPending;
      }
    }
    if (status.ok() && events_.active()) {
      for (Staged& s : staged) {
        obs::EventType type = s.w->kind == WriteKind::kTxnPrepare
                                  ? obs::EventType::kTxnPrepare
                                  : s.w->kind == WriteKind::kTxnCommit
                                        ? obs::EventType::kTxnCommit
                                        : obs::EventType::kTxnRollback;
        obs::Event event(type, clock_->NowNanos());
        event.With("txn_id", static_cast<double>(s.w->txn_id));
        if (s.w->kind == WriteKind::kTxnPrepare) {
          event.With("participants",
                     static_cast<double>(s.w->participants->size()))
              .With("bytes", static_cast<double>(s.w->batch->rep().size()));
        }
        events_.Emit(event);
      }
    }
    lock.lock();
    if (wal_error) {
      HandleWalErrorLocked(status);
    } else {
      NoteMarkersLandedLocked(landed);
    }
  }

  if (status.ok()) {
    if (staged_commit) {
      // Publish AFTER the memtable inserts, exactly like the batch path: a
      // reader snapshotting last_sequence_ never observes a torn commit.
      PMBLADE_SYNC_POINT("DBImpl::CommitTxn:BeforePublish");
      last_sequence_ = next_seq;
    }
    for (Staged& s : staged) {
      switch (s.w->kind) {
        case WriteKind::kTxnPrepare: {
          TxnEntry& entry = txns_[s.w->txn_id];
          entry.participants = *s.w->participants;
          entry.payload = s.w->batch->rep();
          entry.committed = false;
          entry.marker_ticket = s.ticket;
          if (s.w->txn_id > max_seen_txn_id_) max_seen_txn_id_ = s.w->txn_id;
          txn_prepared_counter_->Inc();
          break;
        }
        case WriteKind::kTxnCommit: {
          auto it = txns_.find(s.w->txn_id);  // re-find: mu_ was released
          if (it != txns_.end()) {
            it->second.committed = true;
            it->second.base_seq = s.base_seq;
            it->second.marker_ticket = s.ticket;
          }
          // The user's bytes count once, when they become visible; the
          // prepare is not a second write.
          stats_.AddUserBytes(s.payload.ApproximateSize());
          txn_committed_counter_->Inc();
          break;
        }
        case WriteKind::kTxnRollback:
          txns_.erase(s.w->txn_id);
          txn_rolled_back_counter_->Inc();
          break;
        case WriteKind::kBatch:
          break;
      }
    }
  }

  // Stamp the group outcome on every member that went through the IO path
  // so the caller's wake loop leaves validation outcomes untouched; the
  // leader's own result is the return value.
  for (Staged& s : staged) {
    s.w->own_status = true;
    s.w->status = status;
  }
  return leader_validated_out ? leader.status : status;
}

std::vector<DBImpl::InDoubtTxn> DBImpl::GetInDoubtTxns() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InDoubtTxn> result;
  for (const auto& entry : txns_) {
    if (entry.second.committed) continue;
    InDoubtTxn txn;
    txn.txn_id = entry.first;
    txn.participants = entry.second.participants;
    result.push_back(std::move(txn));
  }
  return result;
}

DBImpl::TxnPeerState DBImpl::QueryTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it != txns_.end()) {
    return it->second.committed ? TxnPeerState::kCommitted
                                : TxnPeerState::kPrepared;
  }
  if (replay_committed_.count(txn_id) != 0) return TxnPeerState::kCommitted;
  if (replay_rolled_back_.count(txn_id) != 0) {
    return TxnPeerState::kRolledBack;
  }
  return TxnPeerState::kUnknown;
}

bool DBImpl::TxnMarkerDurable(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return true;  // already forgotten
  return it->second.marker_ticket <=
         wal_synced_ticket_.load(std::memory_order_relaxed);
}

void DBImpl::ForgetTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  txns_.erase(txn_id);
  replay_committed_.erase(txn_id);
  replay_rolled_back_.erase(txn_id);
}

uint64_t DBImpl::MaxSeenTxnId() {
  std::lock_guard<std::mutex> lock(mu_);
  return max_seen_txn_id_;
}

std::vector<uint64_t> DBImpl::GetRetainedTxnIds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> result;
  for (const auto& entry : txns_) result.push_back(entry.first);
  for (uint64_t txn_id : replay_committed_) result.push_back(txn_id);
  for (uint64_t txn_id : replay_rolled_back_) result.push_back(txn_id);
  return result;
}

WriteBatch* DBImpl::BuildBatchGroup(WriterState** last_writer, bool* sync,
                                    size_t* num_members) {
  WriterState* first = writers_.front();
  WriteBatch* result = first->batch;
  size_t size = result->ApproximateSize();
  *sync = first->sync;
  *last_writer = first;
  *num_members = 1;

  // Cap the group: never past the configured bound, and tighter when the
  // leader itself is small so tiny writes aren't delayed behind megabytes
  // of followers.
  size_t max_size = options_.write_group_max_bytes;
  if (size <= (128 << 10) && size + (128 << 10) < max_size) {
    max_size = size + (128 << 10);
  }

  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    WriterState* candidate = *it;
    // A force-flush marker or txn op must lead its own turn; stop
    // coalescing there.
    if (candidate->batch == nullptr ||
        candidate->kind != WriteKind::kBatch) {
      break;
    }
    if (size + candidate->batch->ApproximateSize() > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch; the leader's own batch is untouched.
      group_batch_.Clear();
      group_batch_.Append(*result);
      result = &group_batch_;
    }
    group_batch_.Append(*candidate->batch);
    size += candidate->batch->ApproximateSize();
    // One fsync covers the whole group: any member that wants durability
    // upgrades everyone (the satellite cost is zero — see Options docs).
    *sync |= candidate->sync;
    *last_writer = candidate;
    ++*num_members;
  }
  return result;
}

void DBImpl::NoteGroupWrites(const WriteBatch& group, MemTable* mem) {
  // Partition write/update counters for the cost model. Update detection
  // probes only the memtable (cheap, DRAM, no value copy): hot keys
  // rewritten within a memtable window are what Eq. 2 cares about. Runs in
  // the unlocked leader section BEFORE the group is inserted, so the probe
  // sees only prior writes.
  struct CounterHandler : WriteBatch::Handler {
    DBImpl* db;
    MemTable* mem;
    void Put(const Slice& key, const Slice&) override {
      Partition* p = db->FindPartition(key);
      if (p == nullptr) return;
      LookupKey lkey(key, kMaxSequenceNumber);
      p->NoteWrite(mem->Contains(lkey));
    }
    void Delete(const Slice& key) override {
      Partition* p = db->FindPartition(key);
      if (p != nullptr) p->NoteWrite(true);
    }
  } handler;
  handler.db = this;
  handler.mem = mem;
  (void)group.Iterate(&handler);  // we built the group; it cannot be malformed
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                bool force) {
  bool allow_delay = !force;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const size_t usage = mem_->ApproximateMemoryUsage();
    // The rotation threshold is dynamic: the memory arbiter retunes
    // memtable_limit_ at runtime (it equals options_.memtable_bytes when
    // the arbiter is off).
    const size_t limit = memtable_limit_.load(std::memory_order_relaxed);
    if (allow_delay && imm_ != nullptr &&
        usage >= static_cast<size_t>(limit *
                                     options_.write_slowdown_watermark)) {
      // Soft limit: the flush is behind. Delay this write once by ~1 ms to
      // shed load gradually instead of hitting the hard stall cliff.
      slowdown_counter_->Inc();
      lock.unlock();
      clock_->SleepForNanos(options_.write_slowdown_nanos);
      lock.lock();
      allow_delay = false;
      continue;
    }
    if (!force && usage < limit) break;
    if (imm_ != nullptr) {
      // Hard stall: both memtables are full; wait for the background flush.
      stall_counter_->Inc();
      const uint64_t stall_start = clock_->NowNanos();
      flush_done_cv_.wait(lock, [this] {
        return imm_ == nullptr || !bg_error_.ok();
      });
      stall_nanos_counter_->Inc(clock_->NowNanos() - stall_start);
      continue;
    }
    if (mem_->num_entries() == 0) break;  // nothing to rotate
    PMBLADE_RETURN_IF_ERROR(SwitchMemTableLocked());
    force = false;
  }
  return Status::OK();
}

Status DBImpl::SwitchMemTableLocked() {
  // MakeRoomForWrite guarantees imm_ == nullptr here.
  std::vector<uint64_t> feeding = live_wals_;
  PMBLADE_RETURN_IF_ERROR(NewWal());
  live_wals_.push_back(wal_number_);
  PMBLADE_SYNC_POINT("DBImpl::SwitchMemTable:AfterNewWal");
  imm_wals_ = std::move(feeding);
  imm_ = mem_;
  // Writes are quiesced here (leader context under mu_), so last_sequence_
  // is exactly the frozen memtable's ceiling.
  imm_ceiling_ = last_sequence_;
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  flush_pool_->Submit([this] { BackgroundFlush(); });
  return Status::OK();
}

void DBImpl::BackgroundFlush() {
  MemTable* imm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    imm = imm_;
  }
  if (imm == nullptr) return;
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Start");

  const uint64_t flush_start = clock_->NowNanos();
  if (events_.active()) {
    events_.Emit(obs::Event(obs::EventType::kFlushBegin, flush_start)
                     .With("entries", static_cast<double>(imm->num_entries()))
                     .With("bytes", static_cast<double>(
                                        imm->ApproximateMemoryUsage())));
  }

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  // Build per-partition level-0 tables WITHOUT the DB mutex: imm is frozen,
  // partition boundaries are immutable after Init, and the factory / PM
  // pool are internally synchronized. Readers and writers proceed.
  std::vector<std::pair<Partition*, L0TableRef>> built;
  std::unique_ptr<Iterator> it(imm->NewIterator());
  it->SeekToFirst();
  Status s;
  for (auto& partition : partitions_) {
    if (!it->Valid()) break;
    // Skip partitions before the iterator's position.
    if (!partition->end_key().empty() &&
        ExtractUserKey(it->key()).compare(
            Slice(partition->end_key())) >= 0) {
      continue;
    }
    BoundedIterator bounded(it.get(), partition->end_key());
    L0TableRef table;
    s = factory->BuildFrom(&bounded, &table);
    if (!s.ok()) break;
    if (table != nullptr) built.emplace_back(partition.get(), std::move(table));
  }
  if (s.ok()) s = it->status();
  it.reset();
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:BuiltTables");

  std::unique_lock<std::mutex> lock(mu_);
  if (s.ok()) {
    // Install under a short critical section: newest first per partition.
    std::vector<Partition*> touched;
    for (auto& entry : built) {
      entry.first->unsorted().insert(entry.first->unsorted().begin(),
                                     entry.second);
      touched.push_back(entry.first);
    }
    imm_->Unref();
    imm_ = nullptr;
    if (imm_ceiling_ > flushed_sequence_) flushed_sequence_ = imm_ceiling_;
    stats_.AddFlush();
    bg_flush_counter_->Inc();

    // The flushed memtable's logs are now redundant: advance the replay
    // floor, commit the manifest, then delete them.
    std::vector<uint64_t> flushed = std::move(imm_wals_);
    imm_wals_.clear();
    for (uint64_t number : flushed) {
      live_wals_.erase(
          std::remove(live_wals_.begin(), live_wals_.end(), number),
          live_wals_.end());
    }
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Installed");
    s = PersistManifest();
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:ManifestCommitted");
    if (s.ok()) {
      for (uint64_t number : flushed) {
        const std::string path = WalFileName(dbname_, number);
        Status rs = wal_env_->RemoveFile(path);
        if (!rs.ok() && wal_env_->FileExists(path)) {
          // A WAL that survives its delete is re-replayed on the next open —
          // harmless for correctness (its data is already durable in L0 and
          // replay is idempotent) but it costs startup time and disk. Keep
          // retrying after future manifest commits instead of leaking it.
          PMBLADE_WARN(options_.logger, "failed to delete flushed wal %s: %s",
                       path.c_str(), rs.ToString().c_str());
          file_gc_fail_counter_->Inc();
          pending_file_gc_.push_back(path);
        }
      }
      PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:WalsDeleted");
      RetryPendingFileGcLocked();
    }
    if (events_.active()) {
      events_.Emit(
          obs::Event(obs::EventType::kFlushEnd, clock_->NowNanos())
              .With("tables", static_cast<double>(touched.size()))
              .With("duration_nanos",
                    static_cast<double>(clock_->NowNanos() - flush_start)));
    }
    if (s.ok()) {
      // The flush is committed and imm_ is clear: wake stalled writers
      // NOW. Algorithm 1 is handed to the scheduler below and must not
      // extend the stall.
      flush_done_cv_.notify_all();
      ScheduleCompactionCheck(touched);
    }
  } else {
    // Failed build: drop partial outputs. imm_ stays installed for reads
    // and its data remains recoverable from the still-live WALs.
    for (auto& entry : built) entry.second->Destroy();
  }
  if (!s.ok()) {
    bg_error_ = s;
    PMBLADE_WARN(options_.logger, "background flush failed: %s",
                 s.ToString().c_str());
  }
  flush_done_cv_.notify_all();
}

void DBImpl::RetryPendingFileGcLocked() {
  if (pending_file_gc_.empty()) return;
  std::vector<std::string> still_pending;
  for (const std::string& path : pending_file_gc_) {
    if (!wal_env_->FileExists(path)) continue;  // a later attempt got it
    Status rs = wal_env_->RemoveFile(path);
    if (!rs.ok() && wal_env_->FileExists(path)) still_pending.push_back(path);
  }
  pending_file_gc_ = std::move(still_pending);
}

Status DBImpl::FlushMemTable() {
  // Rotate the memtable through the writer queue (a batch-less marker) so
  // WAL rotation stays leader-exclusive, then wait for the background
  // flush to commit.
  PMBLADE_RETURN_IF_ERROR(Write(WriteOptions(), nullptr));
  {
    std::unique_lock<std::mutex> lock(mu_);
    flush_done_cv_.wait(lock, [this] {
      return imm_ == nullptr || !bg_error_.ok();
    });
    PMBLADE_RETURN_IF_ERROR(bg_error_);
  }
  // Algorithm-1 work triggered by this flush runs on the compaction
  // scheduler; drain it so maintenance callers (tests, CompactToLevel1, the
  // crash model) observe the post-compaction state deterministically.
  // Bounded even when the env is dying: failed checks retry at most
  // compaction_retry_limit times, then the scheduler parks.
  compaction_scheduler_->WaitIdle();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compaction scheduling (Algorithm 1)
// ---------------------------------------------------------------------------

void DBImpl::ScheduleCompactionCheck(const std::vector<Partition*>& touched) {
  for (Partition* partition : touched) {
    MarkCompactionDirtyLocked(partition);
  }
  compaction_scheduler_->ScheduleCheck();
}

void DBImpl::MarkCompactionDirtyLocked(Partition* partition) {
  if (std::find(compaction_dirty_.begin(), compaction_dirty_.end(),
                partition) == compaction_dirty_.end()) {
    compaction_dirty_.push_back(partition);
  }
}

Status DBImpl::BackgroundCompactionCheck() {
  std::unique_lock<std::mutex> lock(mu_);
  // Claim phase: take the dirty partitions no concurrent check holds. A
  // partition another worker is compacting STAYS dirty — the holder's check
  // (or this one, below) hands it to a fresh check once claims release, so
  // dirtiness is never lost and two workers never share a partition.
  std::vector<Partition*> mine;
  {
    std::vector<Partition*> still_held;
    for (Partition* partition : compaction_dirty_) {
      if (compacting_.insert(partition).second) {
        mine.push_back(partition);
      } else {
        still_held.push_back(partition);
      }
    }
    compaction_dirty_ = std::move(still_held);
  }
#ifdef PMBLADE_SYNC_POINTS
  {
    std::vector<uint64_t> claimed_ids;
    for (Partition* partition : mine) claimed_ids.push_back(partition->id());
    PMBLADE_SYNC_POINT_ARG("DBImpl::CompactionCheck:Claimed", &claimed_ids);
  }
#endif
  Status s = RunCompactionsLocked(lock, mine);
  for (Partition* partition : mine) compacting_.erase(partition);
  if (!s.ok()) {
    // Re-arm the dirty set so the scheduler's retry (or the next
    // flush-triggered check) re-evaluates the same partitions.
    for (Partition* partition : mine) MarkCompactionDirtyLocked(partition);
  }
  // Flushes may have re-dirtied partitions this check was holding (a fresh
  // check skipped them as claimed). Only a check that owned claims
  // re-schedules — a check that claimed nothing must not, or two no-op
  // checks would ping-pong the queue while the holder works.
  if (!mine.empty() && !compaction_dirty_.empty() && s.ok()) {
    compaction_scheduler_->ScheduleCheck();
  }
  return s;
}

Status DBImpl::RunCompactionsLocked(std::unique_lock<std::mutex>& lock,
                                    const std::vector<Partition*>& touched) {
  // First failure seen; siblings keep compacting (isolation: one poisoned
  // partition must not block progress elsewhere in the same check).
  Status first_error;
  if (options_.enable_cost_model) {
    if (options_.enable_internal_compaction) {
      for (Partition* partition : touched) {
        PartitionCounters counters = partition->Counters();
        CostDecision decision = cost_model_->EvaluateInternal(counters);
        decision_counter_->Inc();
        if (decision.eq1_triggered) eq1_trigger_counter_->Inc();
        if (decision.eq2_triggered) eq2_trigger_counter_->Inc();
        if (events_.active()) {
          // Every evaluation is recorded — negative verdicts explain why a
          // partition was NOT compacted, which matters as much as the
          // positives when debugging the policy.
          events_.Emit(
              obs::Event(obs::EventType::kInternalDecision,
                         clock_->NowNanos())
                  .With("partition", static_cast<double>(counters.partition_id))
                  .With("n_r_hat", counters.reads_per_sec)
                  .With("n_unsorted",
                        static_cast<double>(counters.unsorted_tables))
                  .With("n_w", static_cast<double>(counters.writes))
                  .With("n_u", static_cast<double>(counters.updates))
                  .With("size_bytes", static_cast<double>(counters.size_bytes))
                  .With("eq1_benefit_rate", decision.eq1_benefit_rate)
                  .With("eq1_cost_rate", decision.eq1_cost_rate)
                  .With("eq2_ssd_savings", decision.eq2_ssd_savings)
                  .With("eq2_pm_cost", decision.eq2_pm_cost)
                  .With("eq1", decision.eq1_triggered ? 1 : 0)
                  .With("eq2", decision.eq2_triggered ? 1 : 0));
        }
        if (decision.triggered()) {
          Status is = RunInternalCompactionOnPartition(lock, partition);
          if (!is.ok()) {
            if (!bg_error_.ok()) return is;  // manifest loss: stop the check
            if (first_error.ok()) first_error = is;
          }
        }
      }
    }

    // ---- SSD side: the picker decides what/when/where ----
    // Round 0 is the EVICTION check (the Eq. 3 gate + keep-set, evaluated
    // exactly once per check); later rounds drain the policy's shape
    // MAINTENANCE jobs (tiered/lazy run-block merges — leveled never emits
    // any). The round cap bounds a cascade: each round installs at most one
    // job per partition, and a tiered merge cascade over L levels settles in
    // <= L rounds, so 10 covers max_ssd_levels' whole range with slack.
    std::set<Partition*> ours(touched.begin(), touched.end());
    constexpr int kMaxPolicyRounds = 10;
    for (int round = 0; round < kMaxPolicyRounds; ++round) {
      PickContext ctx = BuildPickContextLocked(ours);
      std::vector<CompactionJob> jobs;
      if (round == 0) {
        EvictionPick pick = picker_->PickEviction(ctx);
        if (pick.evaluated) {
          keep_set_counter_->Inc();
          if (events_.active()) {
            std::vector<PartitionCounters> all;
            all.reserve(ctx.partitions.size());
            for (const PartitionView& view : ctx.partitions) {
              all.push_back(view.counters);
            }
            EmitKeepSetEvent(all, pick.keep, pick.tau_t, ctx.total_l0_bytes);
          }
        }
        jobs = std::move(pick.jobs);
        // A failed internal compaction still evaluates the gate (counter +
        // event, as always) but must not start eviction work.
        if (!first_error.ok()) jobs.clear();
      }
      if (jobs.empty()) {
        if (!first_error.ok()) break;
        jobs = picker_->PickMaintenance(ctx);
      }
      if (jobs.empty()) break;

      // Claim job partitions this check does not already hold, so
      // concurrent checks stay off them for the whole merge + install.
      std::vector<MajorJob> major_jobs;
      std::vector<Partition*> extra_claims;
      for (const CompactionJob& job : jobs) {
        Partition* partition = partitions_[job.partition_index].get();
        if (ours.count(partition) == 0) {
          if (!compacting_.insert(partition).second) continue;  // held
          extra_claims.push_back(partition);
        }
        MajorJob mj;
        mj.partition = partition;
        mj.include_l0 = job.include_l0;
        mj.run_begin = job.run_begin;
        mj.run_end = job.run_end;
        mj.output_level = job.output_level;
        major_jobs.push_back(mj);
      }
      Status ms;
      if (!major_jobs.empty()) {
        ms = RunMajorCompactionOnJobs(lock, major_jobs);
      }
      for (Partition* partition : extra_claims) {
        compacting_.erase(partition);
        // An extra victim was not in this check's dirty claim, so a failure
        // would not be re-armed by the caller — mark it dirty here so the
        // retry re-selects it.
        if (!ms.ok()) MarkCompactionDirtyLocked(partition);
      }
      if (!ms.ok()) {
        if (first_error.ok()) first_error = ms;
        break;
      }
    }
    return first_error;
  }

  // Conventional policy (PMBlade-PM): when any partition accumulates
  // l0_table_trigger level-0 tables, compact the ENTIRE level-0 down.
  bool due = false;
  for (const auto& partition : partitions_) {
    if (partition->unsorted().size() + partition->sorted_run().size() >=
        options_.l0_table_trigger) {
      due = true;
      break;
    }
  }
  if (pool_->FreeBytes() < pool_->capacity() / 8 &&
      options_.l0_layout != L0Layout::kSstable) {
    due = true;
  }
  if (due) {
    std::set<Partition*> ours(touched.begin(), touched.end());
    std::vector<Partition*> victims;
    std::vector<Partition*> extra_claims;
    for (const auto& partition : partitions_) {
      Partition* p = partition.get();
      if (p->L0Bytes() == 0) continue;
      if (ours.count(p) == 0) {
        if (!compacting_.insert(p).second) continue;  // held by a sibling
        extra_claims.push_back(p);
      }
      victims.push_back(p);
    }
    if (!victims.empty()) {
      std::vector<MajorJob> jobs;
      jobs.reserve(victims.size());
      for (Partition* p : victims) jobs.push_back(FullCollapseJob(p));
      first_error = RunMajorCompactionOnJobs(lock, jobs);
    }
    for (Partition* p : extra_claims) {
      compacting_.erase(p);
      if (!first_error.ok()) MarkCompactionDirtyLocked(p);
    }
  }
  return first_error;
}

void DBImpl::EmitKeepSetEvent(const std::vector<PartitionCounters>& all,
                              const std::set<size_t>& keep, uint64_t tau_t,
                              uint64_t total_l0_bytes) {
  // Per-partition Eq. 3 scores ride in the detail payload (variable size).
  std::string detail = "[";
  char buf[160];
  for (size_t i = 0; i < all.size(); ++i) {
    const PartitionCounters& c = all[i];
    double score = c.size_bytes > 0 ? static_cast<double>(c.reads) /
                                          static_cast<double>(c.size_bytes)
                                    : 0.0;
    snprintf(buf, sizeof(buf),
             "%s{\"partition\":%llu,\"reads\":%llu,\"size_bytes\":%llu,"
             "\"score\":%.17g,\"kept\":%s}",
             i == 0 ? "" : ",", static_cast<unsigned long long>(c.partition_id),
             static_cast<unsigned long long>(c.reads),
             static_cast<unsigned long long>(c.size_bytes), score,
             keep.count(i) != 0 ? "true" : "false");
    detail += buf;
  }
  detail += "]";
  events_.Emit(
      obs::Event(obs::EventType::kKeepSetSelected, clock_->NowNanos())
          .With("partitions", static_cast<double>(all.size()))
          .With("kept", static_cast<double>(keep.size()))
          .With("tau_t", static_cast<double>(
                             tau_t != 0 ? tau_t : options_.cost.tau_t))
          .With("total_l0_bytes", static_cast<double>(total_l0_bytes))
          .WithDetail(std::move(detail)));
}

Status DBImpl::RunInternalCompactionOnPartition(
    std::unique_lock<std::mutex>& lock, Partition* partition) {
  if (partition->unsorted().empty() && partition->sorted_run().size() <= 1) {
    return Status::OK();
  }
  // Snapshot the inputs under mu_. Only this (scheduler) thread ever
  // removes tables from the partition, so the snapshot stays a suffix of
  // unsorted() while the merge runs; flushes may prepend newer tables.
  std::vector<L0TableRef> snap_unsorted = partition->unsorted();
  std::vector<L0TableRef> snap_sorted = partition->sorted_run();
  std::vector<L0TableRef> inputs = snap_unsorted;  // newest first
  for (const auto& table : snap_sorted) inputs.push_back(table);

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  InternalCompactionOptions copts;
  copts.target_table_bytes = options_.internal_table_target_bytes;
  // ssd_runs is only mutated by this thread, so the verdict stays valid
  // while the lock is released below.
  copts.drop_tombstones = partition->ssd_runs().empty();
  copts.oldest_snapshot = OldestLiveSnapshot();
  copts.clock = clock_;
  copts.event_bus = &events_;
  copts.partition_id = partition->id();

  // The merge runs without mu_: readers and the write pipeline proceed.
  lock.unlock();
  std::vector<L0TableRef> outputs;
  InternalCompactionStats cstats;
  Status s =
      RunInternalCompaction(copts, icmp_, inputs, factory, &outputs, &cstats);
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:Outputs");
  if (!s.ok()) {
    // Retryable: drop any tables built before the failure so PM is not
    // leaked, mutate nothing.
    for (auto& table : outputs) table->Destroy();
    lock.lock();
    return s;
  }
  lock.lock();

  // Install under mu_: remove exactly the snapshotted tables (newer flushed
  // tables at the front of unsorted() stay, correctly ordered above the
  // merged run).
  Partition::RemoveTables(&partition->unsorted(), snap_unsorted);
  partition->sorted_run() = std::move(outputs);
  partition->ResetCounters();
  stats_.AddInternalCompaction(cstats.input_bytes, cstats.output_bytes);

  s = PersistManifest();
  if (!s.ok()) {
    // The new run is already installed in memory; a manifest that cannot be
    // written is a stop-the-world condition (same class as a flush-side
    // manifest failure), not a retryable compaction error.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:AfterManifest");
  for (auto& table : snap_unsorted) table->Destroy();
  for (auto& table : snap_sorted) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "internal compaction p%llu: %llu->%llu tables, released %lld B",
               static_cast<unsigned long long>(partition->id()),
               static_cast<unsigned long long>(cstats.input_tables),
               static_cast<unsigned long long>(cstats.output_tables),
               static_cast<long long>(cstats.bytes_released()));
  return Status::OK();
}

DBImpl::MajorJob DBImpl::FullCollapseJob(Partition* partition) {
  MajorJob job;
  job.partition = partition;
  job.include_l0 = true;
  job.run_begin = 0;
  job.run_end = partition->ssd_runs().size();
  job.output_level = 1;
  return job;
}

PickContext DBImpl::BuildPickContextLocked(const std::set<Partition*>& ours) {
  PickContext ctx;
  ctx.partitions.reserve(partitions_.size());
  for (const auto& up : partitions_) {
    Partition* partition = up.get();
    PartitionView view;
    view.counters = partition->Counters();
    view.l0_bytes = partition->L0Bytes();
    view.runs.reserve(partition->ssd_runs().size());
    for (const SsdRun& run : partition->ssd_runs()) {
      PartitionView::RunView rv;
      rv.level = run.level;
      rv.bytes = run.bytes();
      view.runs.push_back(rv);
    }
    // Claimable for job purposes: held by THIS check already, or unclaimed.
    view.claimable =
        ours.count(partition) != 0 || compacting_.count(partition) == 0;
    ctx.total_l0_bytes += view.l0_bytes;
    ctx.recent_reads += view.counters.reads;
    ctx.recent_writes += view.counters.writes;
    ctx.partitions.push_back(std::move(view));
  }
  // PM-pressure backstop: the Eq. 3 gate also fires when the pool runs
  // short (irrelevant for the SSD-resident kSstable layout).
  ctx.pool_pressure = pool_->FreeBytes() < pool_->capacity() / 8 &&
                      options_.l0_layout != L0Layout::kSstable;
  return ctx;
}

Status DBImpl::RunMajorCompactionOnJobs(std::unique_lock<std::mutex>& lock,
                                        const std::vector<MajorJob>& jobs) {
  // Snapshot every job's table sets under mu_ (both for the merge inputs
  // and for the identity-based install below — tables flushed during the
  // merge must survive it). Run indices stay valid while mu_ is released:
  // the caller holds each job partition's claim, only the claim holder
  // mutates ssd_runs(), and flushes never touch the stack.
  struct JobSnapshot {
    std::vector<L0TableRef> unsorted;                // include_l0 jobs only
    std::vector<L0TableRef> sorted;                  // include_l0 jobs only
    std::vector<std::vector<L0TableRef>> runs;       // [run_begin, run_end)
    bool drop_tombstones = false;
  };
  std::vector<JobSnapshot> snaps;
  snaps.reserve(jobs.size());
  std::vector<CompactionSubtaskInput> subtasks;
  /// subtasks[i] merges one key-range slice of job subtask_job[i]; slices
  /// of a job occupy consecutive subtask indices in ascending key order,
  /// which is what lets the install below stitch them back into one sorted
  /// output run by simple concatenation.
  std::vector<size_t> subtask_job;
  const size_t max_slices =
      static_cast<size_t>(std::max(options_.max_subcompactions, 1));
  for (size_t j = 0; j < jobs.size(); ++j) {
    const MajorJob& job = jobs[j];
    Partition* partition = job.partition;
    JobSnapshot snap;
    if (job.include_l0) {
      snap.unsorted = partition->unsorted();
      snap.sorted = partition->sorted_run();
    }
    const std::vector<SsdRun>& stack = partition->ssd_runs();
    const size_t run_end = std::min(job.run_end, stack.size());
    for (size_t r = job.run_begin; r < run_end; ++r) {
      snap.runs.push_back(stack[r].tables);
    }
    // Tombstones may drop only when the job's inputs reach the oldest run
    // (its output becomes the new bottom of this partition's stack). A
    // run-stacking eviction (run_end == run_begin == 0 over a non-empty
    // stack) or an upper-level block merge keeps them: older runs below may
    // still hold shadowed versions of the deleted keys.
    snap.drop_tombstones = run_end >= stack.size();

    uint64_t pm_bytes = 0;
    if (job.include_l0) pm_bytes = partition->L0Bytes();
    uint64_t ssd_bytes = 0;
    for (const auto& run : snap.runs) {
      for (const auto& table : run) ssd_bytes += table->size_bytes();
    }
    double ssd_fraction =
        (pm_bytes + ssd_bytes) > 0
            ? static_cast<double>(ssd_bytes) / (pm_bytes + ssd_bytes)
            : 0.0;
    if (options_.l0_layout == L0Layout::kSstable) ssd_fraction = 1.0;

    // Subcompaction split rule: slice the job at the table boundaries of
    // its largest sorted component (the oldest input run when one exists,
    // else the sorted run) — every table's smallest user key is a candidate
    // bound, and up to max_subcompactions-1 evenly spaced candidates are
    // kept. Bounds compare user keys, so all versions of a key share a
    // slice.
    std::vector<std::string> bounds;
    const std::vector<L0TableRef>& base_run =
        !snap.runs.empty() ? snap.runs.back() : snap.sorted;
    if (max_slices > 1 && base_run.size() > 1) {
      const size_t k = base_run.size();
      const size_t want = std::min(max_slices - 1, k - 1);
      std::set<size_t> cuts;  // positions in [1, k-1]: cut before table pos
      for (size_t jj = 1; jj <= want; ++jj) {
        size_t pos = jj * k / (want + 1);
        cuts.insert(std::max<size_t>(1, std::min(pos, k - 1)));
      }
      for (size_t pos : cuts) {
        bounds.push_back(ExtractUserKey(base_run[pos]->smallest()).ToString());
      }
    }

    // Capture the table sets by value so iterators outlive version edits.
    std::vector<L0TableRef> unsorted = snap.unsorted;
    std::vector<L0TableRef> sorted = snap.sorted;
    std::vector<std::vector<L0TableRef>> runs = snap.runs;
    const bool include_l0 = job.include_l0;
    const InternalKeyComparator* icmp = &icmp_;
    const size_t num_slices = bounds.size() + 1;
    for (size_t slice = 0; slice < num_slices; ++slice) {
      std::string lo = slice == 0 ? std::string() : bounds[slice - 1];
      std::string hi = slice + 1 == num_slices ? std::string() : bounds[slice];
      CompactionSubtaskInput sub;
      sub.ssd_input_fraction = ssd_fraction;
      sub.drop_tombstones = snap.drop_tombstones ? 1 : 0;
      sub.make_input = [unsorted, sorted, runs, include_l0, icmp, lo,
                        hi]() -> Iterator* {
        // Child order is irrelevant for correctness (the merge resolves
        // duplicates by sequence number); newest-first mirrors the read
        // path.
        std::vector<Iterator*> children;
        if (include_l0) {
          for (const auto& table : unsorted) {
            children.push_back(table->NewIterator());
          }
          children.push_back(NewRunIterator(icmp, sorted));
        }
        for (const auto& run : runs) {
          children.push_back(NewRunIterator(icmp, run));
        }
        Iterator* merged = NewMergingIterator(icmp, std::move(children));
        if (lo.empty() && hi.empty()) {
          merged->SeekToFirst();
          return merged;
        }
        Iterator* clipped = new RangeClippedIterator(merged, lo, hi);
        clipped->SeekToFirst();
        return clipped;
      };
      subtasks.push_back(std::move(sub));
      subtask_job.push_back(j);
    }
    snaps.push_back(std::move(snap));
  }

  MajorCompactionOptions mopts = options_.major;
  mopts.oldest_snapshot = OldestLiveSnapshot();
  // Per-subtask verdicts above override this; one Run may mix bottom jobs
  // (full collapses) with non-bottom ones (run stacking, block merges).
  mopts.drop_tombstones = true;
  mopts.clock = clock_;
  MajorCompactor compactor(raw_env_, model_, l1_factory_.get(), mopts);

  // Merge + all simulated-SSD I/O without mu_.
  lock.unlock();
#ifdef PMBLADE_SYNC_POINTS
  {
    // Fired OUTSIDE mu_ so crash/overlap tests may block here without
    // stalling readers, writers or sibling compaction workers.
    std::vector<uint64_t> victim_ids;
    victim_ids.reserve(jobs.size());
    for (const MajorJob& job : jobs) victim_ids.push_back(job.partition->id());
    PMBLADE_SYNC_POINT_ARG("DBImpl::MajorCompaction:BeforeRun", &victim_ids);
  }
#endif
  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats mstats;
  Status s = compactor.Run(subtasks, &outputs, &mstats);
  if (s.ok()) {
    if (subcompaction_counter_ != nullptr) {
      subcompaction_counter_->Inc(subtasks.size());
    }
    if (major_wall_nanos_counter_ != nullptr) {
      major_wall_nanos_counter_->Inc(mstats.wall_nanos);
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterRun");

  // Open ALL outputs before touching any victim: either every table is
  // ready to install or nothing is mutated. (Opening one victim at a time
  // used to leave earlier victims half-installed — and their doomed tables
  // leaked — when an Open failed at victim v>0, and a later flush's
  // manifest commit would persist the mixed state.)
  TableReaderOptions ropts;
  ropts.comparator = &icmp_;
  ropts.filter_policy = filter_policy_.get();
  ropts.block_cache = block_cache_;

  // One slot per subtask: empty slices produce no output and leave their
  // slot null. Stitching below walks slots in subtask order, which is
  // ascending key order within each job.
  std::vector<L0TableRef> slice_tables(subtasks.size());
  size_t opened = 0;
  while (s.ok() && opened < outputs.size()) {
    const CompactionOutputMeta& meta = outputs[opened];
    TableReaderOptions opts = ropts;
    opts.file_number = meta.file_number;
    std::shared_ptr<SsdL0Table> table;
    s = SsdL0Table::Open(env_, meta.path, meta.file_number, opts, &table);
    if (!s.ok()) break;  // `opened` must not count this file: it still
                         // needs the RemoveFile below, not a Destroy
    slice_tables[meta.subtask_index] = std::move(table);
    ++opened;
  }
  if (!s.ok()) {
    // Nothing was installed; delete the compaction's output files so a
    // failed run leaves no orphans (opened tables drop theirs via Destroy
    // at last ref, unopened ones are removed directly), and report a
    // retryable failure.
    for (auto& table : slice_tables) {
      if (table != nullptr) table->Destroy();
    }
    for (size_t i = opened; i < outputs.size(); ++i) {
      raw_env_->RemoveFile(outputs[i].path);
    }
    lock.lock();
    return s;
  }

  // Stitch: concatenate each job's slice outputs (already disjoint and
  // ascending) back into one output run, then install everything under a
  // single mu_ hold + manifest commit below.
  std::vector<std::vector<L0TableRef>> new_runs(jobs.size());
  for (size_t i = 0; i < slice_tables.size(); ++i) {
    if (slice_tables[i] != nullptr) {
      new_runs[subtask_job[i]].push_back(std::move(slice_tables[i]));
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:OutputsOpened");
  lock.lock();

  // Install ALL jobs atomically under one mu_ hold + one manifest commit.
  // Remove exactly the snapshotted tables; anything flushed into a
  // partition while the merge ran stays in unsorted(), above the new run.
  // The input run block [run_begin, run_end) is replaced in place by the
  // output run, preserving the stack's newest-first recency order and its
  // non-decreasing level tags.
  std::vector<L0TableRef> doomed;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const MajorJob& job = jobs[j];
    Partition* partition = job.partition;
    const JobSnapshot& snap = snaps[j];
    for (auto& t : snap.unsorted) doomed.push_back(t);
    for (auto& t : snap.sorted) doomed.push_back(t);
    for (const auto& run : snap.runs) {
      for (auto& t : run) doomed.push_back(t);
    }
    if (job.include_l0) {
      Partition::RemoveTables(&partition->unsorted(), snap.unsorted);
      Partition::RemoveTables(&partition->sorted_run(), snap.sorted);
    }
    std::vector<SsdRun>& stack = partition->ssd_runs();
    const size_t erase_end = std::min(job.run_end, stack.size());
    stack.erase(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                stack.begin() + static_cast<ptrdiff_t>(erase_end));
    if (!new_runs[j].empty()) {
      SsdRun out;
      out.level = job.output_level;
      out.tables = std::move(new_runs[j]);
      stack.insert(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                   std::move(out));
    }
    // Counters feed the Eq. 1/2/3 decisions about PM level-0; a pure
    // shape-maintenance merge does not consume L0, so it keeps them.
    if (job.include_l0) partition->ResetCounters();
  }
  stats_.AddMajorCompaction(mstats.ssd_bytes_written);

  s = PersistManifest();
  if (!s.ok()) {
    // Installed state that cannot reach the manifest: stop-the-world, same
    // class as a flush-side manifest failure.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterManifest");
  for (auto& table : doomed) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "major compaction (%s): %zu jobs in %zu slices, %llu records "
               "in, %llu out",
               picker_->name(), jobs.size(), subtasks.size(),
               static_cast<unsigned long long>(mstats.input_records),
               static_cast<unsigned long long>(mstats.output_records));
  return Status::OK();
}

Status DBImpl::CompactLevel0() {
  // Serialize with background checks on the scheduler thread — the only
  // thread allowed to mutate sorted runs (see partition.h).
  return compaction_scheduler_->RunExclusive([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& partition : partitions_) {
      PMBLADE_RETURN_IF_ERROR(
          RunInternalCompactionOnPartition(lock, partition.get()));
    }
    return Status::OK();
  });
}

Status DBImpl::CompactToLevel1(bool respect_cost_model) {
  // Drain the memtable through the normal (queued, background) flush path
  // first; FlushMemTable also drains the scheduler, so the victim selection
  // below sees post-compaction state.
  PMBLADE_RETURN_IF_ERROR(FlushMemTable());
  return compaction_scheduler_->RunExclusive([this, respect_cost_model] {
    std::unique_lock<std::mutex> lock(mu_);
    std::set<size_t> keep;
    if (respect_cost_model && options_.enable_cost_model) {
      std::vector<PartitionCounters> all;
      uint64_t total_l0 = 0;
      for (const auto& partition : partitions_) {
        all.push_back(partition->Counters());
        total_l0 += partition->L0Bytes();
      }
      std::vector<size_t> retained = cost_model_->SelectRetained(all);
      keep.insert(retained.begin(), retained.end());
      keep_set_counter_->Inc();
      if (events_.active()) {
        EmitKeepSetEvent(all, keep, /*tau_t=*/0, total_l0);
      }
    }
    std::vector<MajorJob> jobs;
    for (size_t i = 0; i < partitions_.size(); ++i) {
      Partition* partition = partitions_[i].get();
      if (keep.count(i) != 0) continue;
      // Worth collapsing when level-0 holds data, or the SSD stack is not
      // already one level-1 run (a tiered/lazy shape this manual "compact
      // everything to level 1" API promises to flatten). For leveled-built
      // data this reduces to the historical L0Bytes() > 0 filter.
      const std::vector<SsdRun>& stack = partition->ssd_runs();
      bool flat = stack.size() == 1 && stack[0].level == 1;
      if (partition->L0Bytes() == 0 && (stack.empty() || flat)) continue;
      jobs.push_back(FullCollapseJob(partition));
    }
    if (jobs.empty()) return Status::OK();
    return RunMajorCompactionOnJobs(lock, jobs);
  });
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Partition* DBImpl::FindPartition(const Slice& user_key) {
  // Partitions are sorted by range; binary search on end keys.
  size_t lo = 0, hi = partitions_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    const std::string& end = partitions_[mid]->end_key();
    if (!end.empty() && user_key.compare(Slice(end)) >= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < partitions_.size() ? partitions_[lo].get() : nullptr;
}

SequenceNumber DBImpl::OldestLiveSnapshot() const {
  if (live_snapshots_.empty()) return kMaxSequenceNumber;
  return *live_snapshots_.begin();
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  const uint64_t start = clock_->NowNanos();

  MemTable* mem = nullptr;
  MemTable* imm = nullptr;
  SequenceNumber snapshot;
  std::vector<L0TableRef> unsorted;
  std::vector<L0TableRef> sorted;
  std::vector<std::vector<L0TableRef>> ssd_runs;  // newest first
  {
    // Brief version grab: ref the memtables and copy the table refs, then
    // probe everything lock-free. A flush or group commit in flight never
    // blocks a reader past this block.
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = ReadSequenceLocked(options.snapshot);
    mem = mem_;
    mem->Ref();
    if (imm_ != nullptr) {
      imm = imm_;
      imm->Ref();
    }
    Partition* partition = FindPartition(key);
    if (partition != nullptr) {
      partition->NoteRead();
      unsorted = partition->unsorted();
      sorted = partition->sorted_run();
      ssd_runs.reserve(partition->ssd_runs().size());
      for (const SsdRun& run : partition->ssd_runs()) {
        ssd_runs.push_back(run.tables);
      }
    }
  }

  LookupKey lkey(key, snapshot);
  Status result = Status::NotFound();
  ReadSource source = ReadSource::kNotFound;
  bool answered = false;

  std::string local_value;
  Status probe_status;
  ReadProbeStats probe;
  if (mem->Get(lkey, &local_value, &probe_status)) {
    answered = true;
    source = ReadSource::kMemtable;
    result = probe_status;
  }
  if (!answered && imm != nullptr &&
      imm->Get(lkey, &local_value, &probe_status)) {
    answered = true;
    source = ReadSource::kMemtable;
    result = probe_status;
  }
  // SSD-resident probes register as one client op each for the live q_cli
  // gauge; PM-resident level-0 probes never touch the SSD queue.
  const bool ssd_l0 =
      track_client_io_ && options_.l0_layout == L0Layout::kSstable;
  if (!answered) {
    ScopedExternalIo io(ssd_l0 ? model_ : nullptr, IoClass::kClient);
    for (const auto& table : unsorted) {
      bool found = false;
      Status s = L0TableGet(*table, icmp_, lkey, &local_value, &found,
                            &probe_status, &probe);
      if (!s.ok()) {
        mem->Unref();
        if (imm != nullptr) imm->Unref();
        return s;
      }
      if (found) {
        answered = true;
        source = ReadSource::kPmLevel0;
        result = probe_status;
        break;
      }
    }
  }
  if (!answered && !sorted.empty()) {
    ScopedExternalIo io(ssd_l0 ? model_ : nullptr, IoClass::kClient);
    bool found = false;
    Status s = RunGet(sorted, icmp_, lkey, &local_value, &found,
                      &probe_status, &probe);
    if (!s.ok()) {
      mem->Unref();
      if (imm != nullptr) imm->Unref();
      return s;
    }
    if (found) {
      answered = true;
      source = ReadSource::kPmLevel0;
      result = probe_status;
    }
  }
  if (!answered && !ssd_runs.empty()) {
    // SSD runs always live on the SSD; probe newest-first — the first run
    // holding any version of the key is authoritative.
    ScopedExternalIo io(track_client_io_ ? model_ : nullptr, IoClass::kClient);
    for (const auto& run : ssd_runs) {
      bool found = false;
      Status s = RunGet(run, icmp_, lkey, &local_value, &found, &probe_status,
                        &probe);
      if (!s.ok()) {
        mem->Unref();
        if (imm != nullptr) imm->Unref();
        return s;
      }
      if (found) {
        answered = true;
        source = ReadSource::kSsdLevel1;
        result = probe_status;
        break;
      }
    }
  }

  mem->Unref();
  if (imm != nullptr) imm->Unref();

  if (answered && result.ok()) {
    value->swap(local_value);
  } else if (!answered) {
    result = Status::NotFound();
    source = ReadSource::kNotFound;
  } else {
    source = ReadSource::kNotFound;  // tombstone
  }
  if (probe.bloom_checks > 0) {
    bloom_check_counter_->Inc(probe.bloom_checks);
    if (probe.bloom_negatives > 0) {
      bloom_negative_counter_->Inc(probe.bloom_negatives);
    }
    if (probe.bloom_false_positives > 0) {
      bloom_fp_counter_->Inc(probe.bloom_false_positives);
    }
  }
  stats_.RecordRead(source, clock_->NowNanos() - start);
  return result;
}

std::vector<Iterator*> DBImpl::CollectInternalIterators() {
  // Caller holds mu_. Partitions are range-disjoint, so their tables go
  // behind one lazy concatenating iterator: a scan pays for the partition
  // under its cursor, not the whole database.
  std::vector<Iterator*> children;
  children.push_back(mem_->NewIterator());
  if (imm_ != nullptr) children.push_back(imm_->NewIterator());
  std::vector<PartitionSnapshot> parts;
  parts.reserve(partitions_.size());
  for (const auto& partition : partitions_) {
    PartitionSnapshot snap;
    snap.begin_key = partition->begin_key();
    snap.end_key = partition->end_key();
    snap.unsorted = partition->unsorted();
    snap.sorted_run = partition->sorted_run();
    snap.ssd_runs.reserve(partition->ssd_runs().size());
    for (const SsdRun& run : partition->ssd_runs()) {
      snap.ssd_runs.push_back(run.tables);
    }
    parts.push_back(std::move(snap));
  }
  children.push_back(NewPartitionConcatIterator(&icmp_, std::move(parts)));
  return children;
}

uint64_t DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  live_snapshots_.insert(last_sequence_);
  return last_sequence_ == 0 ? kEmptySnapshot : last_sequence_;
}

void DBImpl::ReleaseSnapshot(uint64_t snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_snapshots_.find(snapshot == kEmptySnapshot ? 0 : snapshot);
  if (it != live_snapshots_.end()) live_snapshots_.erase(it);
}

SequenceNumber DBImpl::ReadSequenceLocked(uint64_t snapshot) const {
  if (snapshot == 0) return last_sequence_;
  return snapshot == kEmptySnapshot ? 0 : snapshot;
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

WritePressure DBImpl::GetWritePressure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!bg_error_.ok()) return WritePressure::kStall;
  if (imm_ == nullptr) return WritePressure::kNone;
  // A flush is in flight: grade by how full the active memtable is, the
  // same thresholds MakeRoomForWrite applies (slowdown at the watermark,
  // hard stall when full).
  const size_t usage = mem_->ApproximateMemoryUsage();
  const size_t limit = memtable_limit_.load(std::memory_order_relaxed);
  if (usage >= limit) return WritePressure::kStall;
  if (usage >=
      static_cast<size_t>(limit * options_.write_slowdown_watermark)) {
    return WritePressure::kSlowdown;
  }
  return WritePressure::kNone;
}

void DBImpl::SetDynamicTauT(uint64_t bytes) {
  // 0 reads as "unset" to base_tau_t(); keep the target positive.
  cost_model_->set_dynamic_tau_t(std::max<uint64_t>(bytes, 1));
}

bool DBImpl::GetProperty(const std::string& property, uint64_t* value) {
  return ReadNumericProperty(metrics_, property, value);
}

DBImpl::LevelShape DBImpl::LevelShapeLocked(uint32_t level) const {
  LevelShape shape;
  for (const auto& partition : partitions_) {
    if (level == 0) {
      // PM level-0: each unsorted table is its own (single-table) run, the
      // sorted run is one more.
      shape.runs += partition->unsorted().size() +
                    (partition->sorted_run().empty() ? 0 : 1);
      shape.files +=
          partition->unsorted().size() + partition->sorted_run().size();
      shape.bytes += partition->L0Bytes();
    } else {
      for (const SsdRun& run : partition->ssd_runs()) {
        if (run.level != level) continue;
        shape.runs += 1;
        shape.files += run.tables.size();
        shape.bytes += run.bytes();
      }
    }
  }
  return shape;
}

bool DBImpl::GetProperty(const std::string& property, std::string* value) {
  // Deliberately does NOT hold mu_: the registry snapshot evaluates gauge
  // callbacks that lock mu_ themselves.
  if (property == "pmblade.compaction-policy") {
    *value = picker_->name();
    return true;
  }
  if (property == "pmblade.stats.json") {
    obs::MetricsSnapshot snapshot = metrics_.Snapshot(clock_->NowNanos());
    std::vector<obs::Event> events;
    if (trace_ != nullptr) events = trace_->Snapshot();
    *value = obs::ExportJson(snapshot, events);
    return true;
  }
  if (property == "pmblade.stats.prometheus") {
    *value = obs::ExportPrometheus(metrics_.Snapshot(clock_->NowNanos()));
    return true;
  }
  if (property == "pmblade.stats") {
    *value = stats_.ToString();
    return true;
  }
  if (property == "pmblade.trace.json") {
    *value = trace_ != nullptr ? trace_->DumpJsonLines() : std::string();
    return true;
  }
  if (property == "pmblade.mem.json") {
    *value = arbiter_ != nullptr ? arbiter_->ToJson()
                                 : std::string("{\"enabled\":false}");
    return true;
  }
  return false;
}

}  // namespace pmblade
