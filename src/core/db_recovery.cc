#include "core/db_impl.h"

#include <algorithm>

#include "env/filename.h"
#include "memtable/txn_record.h"
#include "util/sync_point.h"

namespace pmblade {

// ---------------------------------------------------------------------------
// Init / recovery
// ---------------------------------------------------------------------------

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

  // Recover. A missing manifest reads as an empty one whose partitions come
  // from the configured boundaries: it references no table, so the sweep
  // collects whatever a crash before the first manifest commit left, and
  // every log replays.
  ManifestState state;
  Status s = ReadManifest(env_, dbname_, &state);
  if (s.IsNotFound()) {
    std::vector<std::string> ends = options_.partition_boundaries;
    ends.emplace_back();  // the last partition is unbounded
    for (const std::string& end : ends) {
      ManifestPartition mp;
      mp.id = state.partitions.size() + 1;
      if (!state.partitions.empty()) {
        mp.begin_key = state.partitions.back().end_key;
      }
      mp.end_key = end;
      state.partitions.push_back(std::move(mp));
    }
  } else if (!s.ok()) {
    return s;
  }
  l1_factory_->set_next_file_number(state.next_file_number);
  last_sequence_ = state.last_sequence;
  flushed_sequence_ = state.flushed_sequence;
  PMBLADE_RETURN_IF_ERROR(RecoverPartitions(state));
  // The log env indexes the pool's log segments, so it is built only after
  // the orphan sweep: a sweep that freed a log then shows as a lost log
  // instead of a replay reading a freed extent.
  wal_env_.reset(new PmLogEnv(pool_.get(), env_, options_.wal_in_pm));
  PMBLADE_RETURN_IF_ERROR(ReplayWals(state.wal_number));

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

  // Pool tables the manifest has not referenced (yet): kind by id. Log
  // segments are never referenced by the manifest; ReplayWals keeps the
  // logs at or above the replay floor and frees the rest.
  std::map<uint64_t, uint32_t> unreferenced;
  for (const auto& info : pool_->ListObjects()) {
    if (info.kind != kPmLogObject) unreferenced[info.id] = info.kind;
  }
  std::set<uint64_t> referenced_files;
  // The level-1 factory always exists and opens tables of every layout.
  L0TableFactory* factory = l1_factory_.get();
  auto open_pm = [&](const std::vector<uint64_t>& ids,
                     std::vector<L0TableRef>* tables) -> Status {
    for (uint64_t id : ids) {
      auto it = unreferenced.find(id);
      if (it == unreferenced.end()) {
        return Status::Corruption("manifest references missing pm object");
      }
      const uint32_t kind = it->second;
      unreferenced.erase(it);
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(factory->OpenPmTable(id, kind, &t));
      tables->push_back(std::move(t));
    }
    return Status::OK();
  };
  auto open_sst = [&](const std::vector<uint64_t>& numbers,
                      std::vector<L0TableRef>* tables) -> Status {
    for (uint64_t number : numbers) {
      referenced_files.insert(number);
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(factory->OpenSstable(number, &t));
      tables->push_back(std::move(t));
    }
    return Status::OK();
  };

  for (const auto& mp : state.partitions) {
    auto partition = std::make_unique<Partition>(mp.id, mp.begin_key,
                                                 mp.end_key, clock_);
    next_partition_id_ = std::max(next_partition_id_, mp.id + 1);
    PMBLADE_RETURN_IF_ERROR(
        open_pm(mp.unsorted_pm_ids, &partition->unsorted()));
    PMBLADE_RETURN_IF_ERROR(
        open_pm(mp.sorted_pm_ids, &partition->sorted_run()));
    PMBLADE_RETURN_IF_ERROR(
        open_sst(mp.unsorted_file_numbers, &partition->unsorted()));
    PMBLADE_RETURN_IF_ERROR(
        open_sst(mp.sorted_file_numbers, &partition->sorted_run()));
    for (const ManifestSsdRun& mrun : mp.ssd_runs) {
      SsdRun run;
      run.level = mrun.level;
      PMBLADE_RETURN_IF_ERROR(open_sst(mrun.file_numbers, &run.tables));
      partition->ssd_runs().push_back(std::move(run));
    }
    partitions_.push_back(std::move(partition));
  }

  // Garbage-collect the pool tables and .sst files an interrupted flush or
  // compaction left behind.
  for (const auto& orphan : unreferenced) pool_->Free(orphan.first);
  std::vector<std::string> children;
  if (env_->GetChildren(dbname_, &children).ok()) {
    for (const auto& child : children) {
      uint64_t number = 0;
      if (ParseSstFileName(child, &number) &&
          referenced_files.count(number) == 0) {
        env_->RemoveFile(dbname_ + "/" + child);
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
    uint64_t number = 0;
    if (!ParseWalFileName(child, &number)) continue;
    if (number < floor) {
      wal_env_->RemoveFile(dbname_ + "/" + child);
    } else {
      numbers.push_back(number);
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
  // Every replayed batch carries its sequences already; inserting it raises
  // last_sequence_ past them.
  auto apply = [this](WriteBatch& batch) {
    PMBLADE_RETURN_IF_ERROR(batch.InsertInto(mem_));
    const SequenceNumber end_seq = batch.Sequence() + batch.Count() - 1;
    if (end_seq > last_sequence_) last_sequence_ = end_seq;
    return Status::OK();
  };

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
              PMBLADE_RETURN_IF_ERROR(apply(batch));
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
      PMBLADE_RETURN_IF_ERROR(apply(batch));
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
    PMBLADE_RETURN_IF_ERROR(SyncWal());
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
  std::vector<std::string> encoded;
  encoded.reserve(2 * txns_.size());
  for (const auto& entry : txns_) {
    encoded.emplace_back();
    EncodePrepareRecord(entry.first, entry.second.participants,
                        Slice(entry.second.payload), &encoded.back());
    if (entry.second.committed) {
      encoded.emplace_back();
      EncodeCommitRecord(entry.first, entry.second.base_seq, &encoded.back());
    }
  }
  const std::vector<Slice> records(encoded.begin(), encoded.end());
  std::vector<PendingMarker> landed;  // stays empty: none is pending
  uint64_t ticket = 0;
  PMBLADE_RETURN_IF_ERROR(
      AppendToWal(records.data(), records.size(), &landed, &ticket));
  for (auto& entry : txns_) {
    if (entry.second.committed) ++ticket;  // its commit follows the prepare
    entry.second.marker_ticket = ticket++;
  }
  PMBLADE_RETURN_IF_ERROR(SyncWal());
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

}  // namespace pmblade
