#include "core/db_impl.h"

#include <algorithm>

#include "core/properties.h"
#include "core/sharded_db.h"
#include "core/version.h"

namespace pmblade {

// ---------------------------------------------------------------------------
// Open / close
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

std::vector<obs::Event> DBImpl::TraceEvents() const {
  return trace_ != nullptr ? trace_->Snapshot() : std::vector<obs::Event>();
}

bool DBImpl::GetProperty(const std::string& property, std::string* value) {
  // Deliberately does NOT hold mu_: the registry snapshot evaluates gauge
  // callbacks that lock mu_ themselves.
  if (property == "pmblade.compaction-policy") {
    *value = picker_->name();
    return true;
  }
  if (RenderStatsProperty(metrics_, property, clock_->NowNanos(),
                          [this] { return TraceEvents(); }, value)) {
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
