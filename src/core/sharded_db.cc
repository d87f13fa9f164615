#include "core/sharded_db.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include <condition_variable>
#include <set>
#include <thread>

#include "compaction/merging_iterator.h"
#include "core/properties.h"
#include "util/comparator.h"
#include "util/sync_point.h"

namespace pmblade {

namespace {

/// Cross-shard batches of at most this many entries run their 2PC waves
/// inline on the caller (see ShardedDB::RunWave). An MSET sits far below
/// it, a 1000-key bulk batch far above.
constexpr size_t kInlineWaveMaxEntries = 64;

/// Splits one WriteBatch into per-shard sub-batches, preserving op order
/// within each shard (order across shards is immaterial: keyspaces are
/// disjoint under hash routing).
class ShardSplitter final : public WriteBatch::Handler {
 public:
  ShardSplitter(std::vector<WriteBatch>* subs, uint32_t num_shards)
      : subs_(subs), num_shards_(num_shards) {}

  void Put(const Slice& key, const Slice& value) override {
    (*subs_)[ShardedDB::ShardOfKey(key, num_shards_)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*subs_)[ShardedDB::ShardOfKey(key, num_shards_)].Delete(key);
  }

 private:
  std::vector<WriteBatch>* subs_;
  uint32_t num_shards_;
};

/// "pmblade.shard.<i>.<suffix>" -> (i, "pmblade.<suffix>").
bool ParseShardProperty(const std::string& property, uint32_t num_shards,
                        uint32_t* shard, std::string* rest) {
  static constexpr char kPrefix[] = "pmblade.shard.";
  static constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (property.rfind(kPrefix, 0) != 0) return false;
  const size_t dot = property.find('.', kPrefixLen);
  if (dot == std::string::npos || dot == kPrefixLen) return false;
  uint64_t index = 0;
  for (size_t i = kPrefixLen; i < dot; ++i) {
    if (property[i] < '0' || property[i] > '9') return false;
    index = index * 10 + (property[i] - '0');
  }
  if (index >= num_shards) return false;
  *shard = static_cast<uint32_t>(index);
  *rest = "pmblade." + property.substr(dot + 1);
  return true;
}

/// How a shard metric folds into the facade's cross-shard value. Metrics
/// the facade registers itself (shard count, open snapshots, 2PC
/// resolution, writes per sync, the shared arbiter's pmblade.mem.*) are
/// not folded at all: the facade's own entry shadows the shards'.
enum class Combine {
  kSum,   // counters, sizes and queue depths add up across shards
  kOnce,  // one shared resource seen by every shard: count it once
  kMax,   // LSM depth, worst write pressure, largest free PM extent
};

Combine CombineOf(const std::string& name) {
  auto starts_with = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  // The block cache and the SSD model are process-wide, and every shard
  // runs one policy: the device counters and the q_flush budget derived
  // from its queue are identical in every shard.
  if (starts_with("pmblade.blockcache.") || starts_with("pmblade.ssd.") ||
      name == "pmblade.io.q_flush" || name == "pmblade.policy") {
    return Combine::kOnce;
  }
  if (name == "pmblade.lsm.max_ssd_level" ||
      name == "pmblade.write.pressure" ||
      name == "pmblade.pm.largest_free_extent") {
    return Combine::kMax;
  }
  return Combine::kSum;
}

void Fold(Combine rule, const obs::MetricSample& next,
          obs::MetricSample* acc) {
  switch (rule) {
    case Combine::kOnce:
      break;
    case Combine::kMax:
      acc->value = std::max(acc->value, next.value);
      break;
    case Combine::kSum:
      if (acc->kind == obs::MetricKind::kHistogram) {
        acc->hist.Merge(next.hist);
        acc->value = static_cast<double>(acc->hist.count());
      } else {
        acc->value += next.value;
      }
      break;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

uint32_t ShardedDB::ShardOfKey(const Slice& key, uint32_t num_shards) {
  // FNV-1a 64: cheap, stable across platforms (the shard of a key is part
  // of the on-disk contract — see the SHARDS marker).
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); ++i) {
    hash ^= static_cast<unsigned char>(key.data()[i]);
    hash *= 1099511628211ull;
  }
  return static_cast<uint32_t>(hash % num_shards);
}

std::string ShardedDB::ShardPmPoolPath(const std::string& base,
                                       uint32_t shard) {
  return base + ".shard-" + std::to_string(shard);
}

std::string ShardedDB::ShardDirName(const std::string& dbname,
                                    uint32_t shard) {
  return dbname + "/shard-" + std::to_string(shard);
}

// ---------------------------------------------------------------------------
// Open / close
// ---------------------------------------------------------------------------

ShardedDB::ShardedDB(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname) {}

ShardedDB::~ShardedDB() {
  // Join the arbiter thread before any member it touches (the shards'
  // quotas, the facade registry) is destroyed.
  if (parts_ != nullptr) parts_->StopArbiter();
  // Last chance to retire committed fences whose markers are already
  // durable; the rest replay at the next open and are forgotten by its
  // resolution pass.
  if (!shards_.empty()) DrainForgettableTxns();
  // Fan-out tasks capture shards; join them first.
  fanout_pool_.reset();
  // Shards read through parts_; drop them while it is still alive
  // (declaration order already guarantees this — made explicit here).
  shards_.clear();
}

Status ShardedDB::Init() {
  PMBLADE_RETURN_IF_ERROR(options_.Sanitize());
  env_ = options_.env;
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));
  PMBLADE_RETURN_IF_ERROR(
      CheckOrPinShardCount(env_, dbname_, options_.num_shards));

  parts_.reset(new EngineParts(options_));
  std::vector<DBImpl*> shards;
  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    Options shard_opts = options_;
    shard_opts.num_shards = 1;
    if (!options_.pm_pool_path.empty()) {
      shard_opts.pm_pool_path = ShardPmPoolPath(options_.pm_pool_path, i);
    }
    auto shard = std::make_unique<DBImpl>(shard_opts, ShardDirName(dbname_, i),
                                          parts_.get());
    PMBLADE_RETURN_IF_ERROR(shard->Init());
    shards.push_back(shard.get());
    shards_.push_back(std::move(shard));
  }

  RegisterAggregatedMetrics();
  // The facade's arbiter emits no events: there is no facade trace ring.
  parts_->StartArbiter(options_, std::move(shards), &metrics_, nullptr);

  // Cross-shard write fan-out + 2PC bookkeeping. A parallel wave runs N-1
  // shard ops on the pool (the caller runs the last inline), and pool
  // threads BLOCK inside the target shard's group commit — so a pool sized
  // for one wave serializes concurrent writers' waves behind each other.
  // Provision for several in-flight waves; beyond that, excess waves ride
  // the shards' own group commit batching anyway.
  fanout_pool_.reset(new ThreadPool(static_cast<int>(
      std::min<uint32_t>(4 * (options_.num_shards - 1), 32))));
  txn_fanout_waves_counter_ =
      metrics_.GetCounter("pmblade.txn.fanout_waves");
  txn_in_doubt_counter_ = metrics_.GetCounter("pmblade.txn.in_doubt");
  txn_resolved_commit_counter_ =
      metrics_.GetCounter("pmblade.txn.resolved_commit");
  txn_resolved_rollback_counter_ =
      metrics_.GetCounter("pmblade.txn.resolved_rollback");
  // Resolve transactions a crash left prepared-but-undecided, and seed the
  // txn-id allocator past everything the shards replayed.
  PMBLADE_RETURN_IF_ERROR(ResolveInDoubtTxns());
  return Status::OK();
}

Status ShardedDB::CheckOrPinShardCount(Env* env, const std::string& dbname,
                                       uint32_t num_shards) {
  const std::string marker = dbname + "/SHARDS";
  if (!env->FileExists(marker)) {
    if (num_shards == 1) return Status::OK();
    return WriteStringToFile(env, Slice(std::to_string(num_shards)), marker);
  }
  std::string data;
  PMBLADE_RETURN_IF_ERROR(ReadFileToString(env, marker, &data));
  const unsigned long pinned = std::strtoul(data.c_str(), nullptr, 10);
  if (pinned != num_shards) {
    return Status::InvalidArgument(
        dbname + " was created with num_shards=" + std::to_string(pinned) +
        "; opening it with num_shards=" + std::to_string(num_shards) +
        " would mis-route keys");
  }
  return Status::OK();
}

void ShardedDB::RegisterAggregatedMetrics() {
  // Metrics the facade owns.
  metrics_.RegisterGaugeCallback("pmblade.shards", [this] {
    return static_cast<double>(shards_.size());
  });
  // Each facade handle pins one snapshot per shard, so a per-shard sum
  // would overcount by N.
  metrics_.RegisterGaugeCallback("pmblade.snapshots.open", [this] {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return static_cast<double>(snapshots_.size());
  });
  // A ratio of the cross-shard sums, not a sum of per-shard ratios.
  metrics_.RegisterGaugeCallback("pmblade.write.writes_per_sync", [this] {
    obs::MetricSample syncs, writes;
    if (!ReadShardMetric("pmblade.wal.syncs", &syncs) || syncs.value == 0 ||
        !ReadShardMetric("pmblade.write.group_writes", &writes)) {
      return 0.0;
    }
    return writes.value / syncs.value;
  });
  // Splice every shard's registry into facade snapshots: a
  // pmblade.shard.<i>.* breakdown plus cross-shard aggregates under the
  // original names, folded by CombineOf.
  metrics_.RegisterSnapshotProvider(
      [this](std::vector<obs::MetricSample>* out) {
        std::map<std::string, obs::MetricSample> agg;
        for (size_t i = 0; i < shards_.size(); ++i) {
          obs::MetricsSnapshot snap =
              shards_[i]->metrics_registry()->Snapshot(0);
          for (auto& sample : snap.samples) {
            std::string suffix = sample.name;
            static constexpr char kRoot[] = "pmblade.";
            if (suffix.rfind(kRoot, 0) == 0) {
              suffix = suffix.substr(sizeof(kRoot) - 1);
            }
            obs::MetricSample per_shard = sample;
            per_shard.name =
                "pmblade.shard." + std::to_string(i) + "." + suffix;
            out->push_back(std::move(per_shard));
            auto it = agg.find(sample.name);
            if (it == agg.end()) {
              agg.emplace(sample.name, std::move(sample));
            } else {
              Fold(CombineOf(sample.name), sample, &it->second);
            }
          }
        }
        for (auto& [name, sample] : agg) {
          (void)name;
          out->push_back(std::move(sample));
        }
      },
      [this](const std::string& name, obs::MetricSample* out) {
        return ReadShardMetric(name, out);
      });
}

bool ShardedDB::ReadShardMetric(const std::string& name,
                                obs::MetricSample* out) {
  uint32_t shard = 0;
  std::string rest;
  if (ParseShardProperty(name, static_cast<uint32_t>(shards_.size()),
                         &shard, &rest)) {
    if (!shards_[shard]->metrics_registry()->Read(rest, out)) return false;
    out->name = name;
    return true;
  }
  const Combine rule = CombineOf(name);
  bool found = false;
  for (auto& s : shards_) {
    obs::MetricSample sample;
    if (!s->metrics_registry()->Read(name, &sample)) continue;
    if (found) {
      Fold(rule, sample, out);
    } else {
      *out = std::move(sample);
      found = true;
      if (rule == Combine::kOnce) break;
    }
  }
  return found;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  Status s = shards_[Route(key)]->Put(options, key, value);
  DrainAfterSyncWrite(options);
  return s;
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  Status s = shards_[Route(key)]->Delete(options, key);
  DrainAfterSyncWrite(options);
  return s;
}

void ShardedDB::DrainAfterSyncWrite(const WriteOptions& options) {
  // A synced append carries its shard's pending commit markers and makes
  // them durable, which may be the last thing a fence waits for.
  if (options.sync || options_.sync_wal) DrainForgettableTxns();
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null WriteBatch");
  }
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  std::vector<WriteBatch> subs(n);
  ShardSplitter splitter(&subs, n);
  PMBLADE_RETURN_IF_ERROR(batch->Iterate(&splitter));
  std::vector<uint32_t> participants;
  for (uint32_t i = 0; i < n; ++i) {
    if (subs[i].Count() > 0) participants.push_back(i);
  }
  if (participants.empty()) return Status::OK();
  if (participants.size() == 1) {
    // Marker-free fast path: one shard's normal group commit is already
    // atomic + durable on its own, identical to num_shards=1.
    const uint32_t only = participants.front();
    Status s = shards_[only]->Write(options, &subs[only]);
    DrainAfterSyncWrite(options);
    return s;
  }
  return WriteAtomic(options, subs, participants);
}

void ShardedDB::RunWave(Wave wave, size_t entries,
                        const std::vector<uint32_t>& participants,
                        const std::function<void(uint32_t)>& fn) {
  // A wave runs inline, one participant after another, when the hop to a
  // fan-out thread (a futex wake there, a condvar wake back) costs more
  // than overlapping the participants saves: a small batch's commit or
  // rollback is a few memtable inserts or one marker, and its prepare is
  // one PM append whose Sync is free. On the SSD WAL every prepare is a
  // device write, and a bulk batch's copies and inserts are long enough to
  // overlap, so those waves stay parallel.
  const bool inline_wave =
      entries <= kInlineWaveMaxEntries &&
      (wave != Wave::kPrepare || options_.wal_in_pm);
  if (inline_wave) {
    for (uint32_t id : participants) fn(id);
    return;
  }
  txn_fanout_waves_counter_->Inc();
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = participants.size() - 1;
  // The last task signals after releasing mu, so the woken caller never
  // blocks on a lock its waker still holds. The caller owns the stack
  // these live on: the pin, taken under mu before the count reaches zero,
  // keeps it from returning until the notify is done.
  std::atomic<int> wake_pin{0};
  for (size_t i = 0; i + 1 < participants.size(); ++i) {
    const uint32_t id = participants[i];
    fanout_pool_->Submit([&mu, &cv, &remaining, &wake_pin, &fn, id] {
      fn(id);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining != 0) return;
        wake_pin.store(1, std::memory_order_relaxed);
      }
      cv.notify_one();
      wake_pin.store(0, std::memory_order_release);
    });
  }
  fn(participants.back());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  while (wake_pin.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

Status ShardedDB::WriteAtomic(const WriteOptions& options,
                              std::vector<WriteBatch>& subs,
                              const std::vector<uint32_t>& participants) {
  const uint64_t txn_id =
      next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Status> statuses(shards_.size());
  size_t entries = 0;
  for (uint32_t shard : participants) entries += subs[shard].Count();

  // Phase 1: every participant appends + fsyncs a prepare record holding
  // its sub-batch. No commit starts before the whole wave is durable.
  RunWave(Wave::kPrepare, entries, participants, [&](uint32_t shard) {
    statuses[shard] =
        shards_[shard]->PrepareTxn(options, txn_id, participants,
                                   &subs[shard]);
  });
  Status prepare_status;
  for (uint32_t shard : participants) {
    if (prepare_status.ok() && !statuses[shard].ok()) {
      prepare_status = statuses[shard];
    }
  }
  PMBLADE_SYNC_POINT("ShardedDB::Write:AfterPrepare");
  if (!prepare_status.ok()) {
    // Abort: rollback markers everywhere (harmless on shards whose prepare
    // never landed). Durability is lazy — recovery defaults a missing
    // prepare to rollback anyway — but note the indeterminate window: if
    // every prepare actually reached disk despite the error, a crash
    // before the rollback markers sync can resolve this txn COMMITTED.
    RunWave(Wave::kRollback, entries, participants, [&](uint32_t shard) {
      shards_[shard]->RollbackTxn(WriteOptions(), txn_id);
    });
    return prepare_status;
  }

  // Phase 2: sequence assignment, memtable insert + publish. No rollback
  // from here on: with every prepare durable the txn is decided, and a
  // shard that failed its commit will be resolved COMMITTED from its
  // still-buffered prepare at the next open.
  //
  // The commits are deliberately unsynced even for sync writes, which
  // makes them memory-only: each shard's kCommit marker goes out with its
  // next WAL append (or rotation, or close). The durable prepares on every
  // participant already decide the txn (a crash that loses every marker
  // still resolves to commit), so neither a marker write nor a second
  // fsync wave buys durability here. Markers become durable on the next
  // natural sync — a later prepare, a sync write, WAL rotation — which
  // only delays fence retirement.
  WriteOptions commit_options = options;
  commit_options.sync = false;
  RunWave(Wave::kCommit, entries, participants, [&](uint32_t shard) {
    statuses[shard] = shards_[shard]->CommitTxn(commit_options, txn_id);
  });
  Status result;
  for (uint32_t shard : participants) {
    if (result.ok() && !statuses[shard].ok()) result = statuses[shard];
  }

  // Retire the fence once every participant's marker is durable; until
  // then WAL rotation keeps carrying the commit evidence siblings might
  // need at recovery.
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    PendingForget pending;
    pending.txn_id = txn_id;
    pending.participants = participants;
    pending_forget_.push_back(std::move(pending));
  }
  DrainForgettableTxns();
  return result;
}

void ShardedDB::DrainForgettableTxns() {
  std::vector<PendingForget> pending;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    pending.swap(pending_forget_);
  }
  std::vector<PendingForget> keep;
  for (auto& p : pending) {
    bool durable = true;
    for (uint32_t shard : p.participants) {
      if (!shards_[shard]->TxnMarkerDurable(p.txn_id)) {
        durable = false;
        break;
      }
    }
    if (durable) {
      for (uint32_t shard : p.participants) {
        shards_[shard]->ForgetTxn(p.txn_id);
      }
    } else {
      keep.push_back(std::move(p));
    }
  }
  if (!keep.empty()) {
    std::lock_guard<std::mutex> lock(txn_mu_);
    pending_forget_.insert(pending_forget_.begin(),
                           std::make_move_iterator(keep.begin()),
                           std::make_move_iterator(keep.end()));
  }
}

Status ShardedDB::ResolveInDoubtTxns() {
  // Union of every shard's in-doubt set (the participant list rides in the
  // prepare record, so any surviving prepare names the whole group).
  std::map<uint64_t, std::vector<uint32_t>> in_doubt;
  uint64_t max_txn = 0;
  for (auto& shard : shards_) {
    max_txn = std::max(max_txn, shard->MaxSeenTxnId());
    for (auto& txn : shard->GetInDoubtTxns()) {
      auto& parts = in_doubt[txn.txn_id];
      if (parts.empty()) parts = txn.participants;
    }
  }
  next_txn_id_.store(max_txn + 1, std::memory_order_relaxed);

  WriteOptions sync_opts;
  sync_opts.sync = true;
  Status result;
  for (auto& [txn_id, participants] : in_doubt) {
    txn_in_doubt_counter_->Inc();
    // Decision rules, in order: commit evidence anywhere => COMMIT;
    // a rollback marker => ROLL BACK; any participant with no trace (its
    // always-fsynced prepare is missing, so the commit wave cannot have
    // started) => ROLL BACK; all participants prepared => COMMIT (the
    // batch was fully durable, exactly the state phase 2 acts from).
    bool any_committed = false;
    bool any_rolled_back = false;
    bool any_unknown = false;
    for (uint32_t shard : participants) {
      if (shard >= shards_.size()) {
        any_unknown = true;
        continue;
      }
      switch (shards_[shard]->QueryTxn(txn_id)) {
        case DBImpl::TxnPeerState::kCommitted:
          any_committed = true;
          break;
        case DBImpl::TxnPeerState::kRolledBack:
          any_rolled_back = true;
          break;
        case DBImpl::TxnPeerState::kUnknown:
          any_unknown = true;
          break;
        case DBImpl::TxnPeerState::kPrepared:
          break;
      }
    }
    const bool commit = any_committed || (!any_rolled_back && !any_unknown);
    for (uint32_t shard : participants) {
      if (shard >= shards_.size()) continue;
      if (shards_[shard]->QueryTxn(txn_id) !=
          DBImpl::TxnPeerState::kPrepared) {
        continue;
      }
      // Resolution markers are always fsynced: the verdict must not flip
      // across a second crash. The hook lets a test split the verdict.
      bool apply_commit = commit;
      PMBLADE_SYNC_POINT_ARG("ShardedDB::ResolveInDoubtTxns:Apply",
                             &apply_commit);
      Status s = apply_commit ? shards_[shard]->CommitTxn(sync_opts, txn_id)
                              : shards_[shard]->RollbackTxn(sync_opts, txn_id);
      if (result.ok() && !s.ok()) result = s;
    }
    (commit ? txn_resolved_commit_counter_ : txn_resolved_rollback_counter_)
        ->Inc();
  }
  PMBLADE_RETURN_IF_ERROR(result);

  // Every verdict is durable now; retained fences and replay evidence are
  // redundant, so drop them — the shards start with empty txn state.
  std::set<uint64_t> retained;
  for (auto& shard : shards_) {
    for (uint64_t txn_id : shard->GetRetainedTxnIds()) {
      retained.insert(txn_id);
    }
  }
  for (uint64_t txn_id : retained) {
    for (auto& shard : shards_) shard->ForgetTxn(txn_id);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads / snapshots
// ---------------------------------------------------------------------------

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const uint32_t shard = Route(key);
  if (options.snapshot == 0) {
    return shards_[shard]->Get(options, key, value);
  }
  ReadOptions ropts = options;
  PMBLADE_RETURN_IF_ERROR(
      TranslateSnapshot(options.snapshot, shard, &ropts.snapshot));
  return shards_[shard]->Get(ropts, key, value);
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  std::vector<uint64_t> seqs;  // empty = read at each shard's latest
  if (options.snapshot != 0) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snapshots_.find(options.snapshot);
    if (it == snapshots_.end()) {
      return NewErrorIterator(
          Status::InvalidArgument("unknown snapshot handle"));
    }
    seqs = it->second;
  }
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ReadOptions ropts = options;
    ropts.snapshot = seqs.empty() ? 0 : seqs[i];
    children.push_back(shards_[i]->NewIterator(ropts));
  }
  // Each child already yields live user keys in bytewise order, and hash
  // routing keeps the shards' keyspaces disjoint, so the plain merge IS
  // the global sorted view.
  return NewMergingIterator(BytewiseComparator(), std::move(children));
}

uint64_t ShardedDB::GetSnapshot() {
  std::vector<uint64_t> seqs;
  seqs.reserve(shards_.size());
  for (auto& shard : shards_) seqs.push_back(shard->GetSnapshot());
  std::lock_guard<std::mutex> lock(snap_mu_);
  const uint64_t handle = next_snapshot_handle_++;
  snapshots_.emplace(handle, std::move(seqs));
  return handle;
}

void ShardedDB::ReleaseSnapshot(uint64_t snapshot) {
  std::vector<uint64_t> seqs;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snapshots_.find(snapshot);
    if (it == snapshots_.end()) return;
    seqs = std::move(it->second);
    snapshots_.erase(it);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->ReleaseSnapshot(seqs[i]);
  }
}

Status ShardedDB::TranslateSnapshot(uint64_t handle, uint32_t shard,
                                    uint64_t* shard_snapshot) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  auto it = snapshots_.find(handle);
  if (it == snapshots_.end()) {
    return Status::NotFound("unknown snapshot handle");
  }
  *shard_snapshot = it->second[shard];
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status ShardedDB::FlushMemTable() {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->FlushMemTable();
    if (result.ok() && !s.ok()) result = s;
  }
  // Rotation just fsynced every shard's WAL, so any fence still waiting on
  // marker durability is ready to retire.
  DrainForgettableTxns();
  return result;
}

Status ShardedDB::CompactLevel0() {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->CompactLevel0();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status ShardedDB::CompactToLevel1(bool respect_cost_model) {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->CompactToLevel1(respect_cost_model);
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

WritePressure ShardedDB::GetWritePressure() {
  WritePressure worst = WritePressure::kNone;
  for (auto& shard : shards_) {
    WritePressure p = shard->GetWritePressure();
    if (static_cast<int>(p) > static_cast<int>(worst)) worst = p;
    if (worst == WritePressure::kStall) break;
  }
  return worst;
}

WritePressure ShardedDB::GetWritePressure(const Slice& key) {
  return shards_[Route(key)]->GetWritePressure();
}

WritePressure ShardedDB::GetShardWritePressure(uint32_t shard) {
  if (shard >= shards_.size()) return WritePressure::kNone;
  return shards_[shard]->GetWritePressure();
}

bool ShardedDB::GetProperty(const std::string& property, uint64_t* value) {
  // Per-shard drill-down, hyphenated names included:
  // "pmblade.shard.<i>.<prop>".
  uint32_t shard = 0;
  std::string rest;
  if (ParseShardProperty(property, static_cast<uint32_t>(shards_.size()),
                         &shard, &rest)) {
    return shards_[shard]->GetProperty(rest, value);
  }
  return ReadNumericProperty(metrics_, property, value);
}

bool ShardedDB::GetProperty(const std::string& property, std::string* value) {
  // The events are every shard's, concatenated by shard as in
  // pmblade.trace.json below.
  auto events = [this] {
    std::vector<obs::Event> all;
    for (const auto& shard : shards_) {
      std::vector<obs::Event> part = shard->TraceEvents();
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };
  if (RenderStatsProperty(metrics_, property, options_.clock->NowNanos(),
                          events, value)) {
    return true;
  }
  if (property == "pmblade.mem.json") {
    *value = EngineParts::MemJson(parts_.get());
    return true;
  }
  if (property == "pmblade.compaction-policy") {
    // Every shard runs the same Options; shard 0 speaks for all.
    return shards_[0]->GetProperty(property, value);
  }
  if (property == "pmblade.trace.json") {
    // Concatenated per-shard traces (each line is a self-contained JSON
    // event; ordering across shards is by shard, not time).
    value->clear();
    for (auto& shard : shards_) {
      std::string part;
      if (shard->GetProperty(property, &part)) value->append(part);
    }
    return true;
  }
  uint32_t shard = 0;
  std::string rest;
  if (ParseShardProperty(property, static_cast<uint32_t>(shards_.size()),
                         &shard, &rest)) {
    return shards_[shard]->GetProperty(rest, value);
  }
  return false;
}

}  // namespace pmblade
