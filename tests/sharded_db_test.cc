// Tests for ShardedDB (src/core/sharded_db.h): hash routing, per-shard
// WriteBatch split semantics, the merged cross-shard iterator behind SCAN
// (ordering, cursor resume, MATCH), snapshot handles, crash/reopen WAL
// recovery of every shard, the SHARDS marker pin, property/metric
// aggregation, per-shard -BUSY admission (a stalled shard must not shed
// idle-shard traffic) and a multi-writer stress run for TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <chrono>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/sharded_db.h"
#include "env/env.h"
#include "env/ssd_model.h"
#include "net/commands.h"
#include "net/resp.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace pmblade {
namespace {

using net::RespValue;

constexpr uint32_t kShards = 4;

class ShardedDBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_sharded_db_test";
    options_ = Options();
    options_.num_shards = kShards;
    options_.memtable_bytes = 64 << 10;
    options_.pm_pool_capacity = 8 << 20;  // per shard
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }

  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  void Open() {
    db_.reset();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options_, dbname_, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_ = std::move(db);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  ShardedDB* sharded() { return static_cast<ShardedDB*>(db_.get()); }

  /// A key that routes to `shard` under kShards (linear probe, so tests can
  /// aim writes at a specific shard deterministically).
  static std::string KeyForShard(uint32_t shard, int salt) {
    for (int i = 0;; ++i) {
      std::string key = "s" + std::to_string(salt) + "-" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, kShards) == shard) return key;
    }
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
  // A test-body Env must outlive TearDown (its DestroyDB dereferences
  // options_.env), so tests park custom Envs here: fixture members are
  // destroyed after TearDown runs.
  std::unique_ptr<Env> owned_env_;
};

TEST_F(ShardedDBTest, RoutedCrudAcrossAllShards) {
  Open();
  EXPECT_EQ(db_->num_shards(), kShards);
  uint64_t n = 0;
  EXPECT_TRUE(db_->GetProperty("pmblade.shards", &n));
  EXPECT_EQ(n, kShards);

  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  // Every shard received some share of a 400-key uniform workload.
  for (uint32_t i = 0; i < kShards; ++i) {
    uint64_t writes = 0;
    ASSERT_TRUE(db_->GetProperty(
        "pmblade.shard." + std::to_string(i) + ".writes", &writes));
    EXPECT_GT(writes, 0u) << "shard " << i << " got no writes";
  }
  for (const auto& kv : model) {
    EXPECT_EQ(Get(kv.first), kv.second);
    // The key lives in exactly its routed shard.
    const uint32_t home = ShardedDB::ShardOfKey(kv.first, kShards);
    for (uint32_t i = 0; i < kShards; ++i) {
      std::string value;
      Status s = sharded()->shard(i)->Get(ReadOptions(), kv.first, &value);
      if (i == home) {
        EXPECT_TRUE(s.ok()) << kv.first;
      } else {
        EXPECT_TRUE(s.IsNotFound()) << kv.first << " leaked to shard " << i;
      }
    }
  }
  ASSERT_TRUE(db_->Delete(WriteOptions(), "key7").ok());
  EXPECT_EQ(Get("key7"), "NOT_FOUND");
}

TEST_F(ShardedDBTest, WriteBatchSplitsAndAppliesPerShard) {
  Open();
  WriteBatch batch;
  std::vector<std::string> keys;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    keys.push_back(KeyForShard(shard, 1));
    batch.Put(keys.back(), "batched-" + std::to_string(shard));
  }
  batch.Put("overwritten", "first");
  batch.Put("overwritten", "second");  // later op in the batch wins
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());

  for (uint32_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(Get(keys[shard]), "batched-" + std::to_string(shard));
  }
  EXPECT_EQ(Get("overwritten"), "second");

  WriteBatch deletes;
  for (const std::string& key : keys) deletes.Delete(key);
  ASSERT_TRUE(db_->Write(WriteOptions(), &deletes).ok());
  for (const std::string& key : keys) EXPECT_EQ(Get(key), "NOT_FOUND");

  // A null batch is rejected, not crashed on.
  EXPECT_FALSE(db_->Write(WriteOptions(), nullptr).ok());
}

TEST_F(ShardedDBTest, MergedIteratorIsGloballySorted) {
  Open();
  std::map<std::string, std::string> model;
  Random rng(42);
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(100000));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  // Push some of it through flush so the merge spans memtables AND level-0.
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string late_key = "k00late";
  ASSERT_TRUE(db_->Put(WriteOptions(), late_key, "late").ok());
  model[late_key] = "late";

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  auto expect = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, model.end());
    EXPECT_EQ(it->key().ToString(), expect->first);
    EXPECT_EQ(it->value().ToString(), expect->second);
  }
  EXPECT_EQ(expect, model.end());
  EXPECT_TRUE(it->status().ok());

  // Seek lands on the first key >= target across every shard.
  auto mid = model.begin();
  std::advance(mid, model.size() / 2);
  it->Seek(mid->first);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), mid->first);

  // Backward traversal too (the merge is bidirectional).
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), model.rbegin()->first);
}

TEST_F(ShardedDBTest, SnapshotHandleGivesPerShardStableReads) {
  Open();
  std::vector<std::string> keys;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    keys.push_back(KeyForShard(shard, 2));
    ASSERT_TRUE(db_->Put(WriteOptions(), keys.back(), "old").ok());
  }
  const uint64_t snap = db_->GetSnapshot();
  for (const std::string& key : keys) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key, "new").ok());
  }

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  for (const std::string& key : keys) {
    std::string value;
    ASSERT_TRUE(db_->Get(at_snap, key, &value).ok());
    EXPECT_EQ(value, "old") << key;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok());
    EXPECT_EQ(value, "new") << key;
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(at_snap));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->value().ToString(), "old");
  }
  db_->ReleaseSnapshot(snap);

  // An unknown handle surfaces as an error iterator, not silent latest.
  ReadOptions bogus;
  bogus.snapshot = snap + 1000;
  std::unique_ptr<Iterator> bad(db_->NewIterator(bogus));
  bad->SeekToFirst();
  EXPECT_FALSE(bad->Valid());
  EXPECT_FALSE(bad->status().ok());
}

TEST_F(ShardedDBTest, SnapshotOfEmptyDbSeesNoLaterWrite) {
  // A snapshot taken before the first write is a snapshot at sequence 0,
  // which must not read as "latest" once writes land, on a plain engine
  // and on a sharded one whose shards are all still empty.
  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    db_.reset();
    DestroyDB(options_, dbname_);
    options_.num_shards = shards;
    Open();
    const uint64_t snap = db_->GetSnapshot();
    ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());

    ReadOptions at_snap;
    at_snap.snapshot = snap;
    std::string value;
    EXPECT_TRUE(db_->Get(at_snap, "k", &value).IsNotFound()) << value;
    std::unique_ptr<Iterator> it(db_->NewIterator(at_snap));
    it->SeekToFirst();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok());
    it.reset();
    db_->ReleaseSnapshot(snap);
    EXPECT_EQ(Get("k"), "v");
  }
}

TEST_F(ShardedDBTest, CrossShardBatchCountsItsUserBytes) {
  options_.num_shards = 2;
  Open();
  auto user_bytes = [this] {
    uint64_t bytes = 0;
    EXPECT_TRUE(db_->GetProperty("pmblade.write.user_bytes", &bytes));
    return bytes;
  };
  auto key_for = [](uint32_t shard, int salt) {
    for (int i = 0;; ++i) {
      std::string key = "u" + std::to_string(salt) + "-" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, 2) == shard) return key;
    }
  };

  // One cross-shard batch (two sub-batches, each with its own header)...
  WriteBatch cross;
  cross.Put(key_for(0, 1), std::string(100, 'a'));
  cross.Put(key_for(1, 1), std::string(200, 'b'));
  const uint64_t before_cross = user_bytes();
  ASSERT_TRUE(db_->Write(WriteOptions(), &cross).ok());
  const uint64_t cross_bytes = user_bytes() - before_cross;

  // ...counts what the same keys and values cost as single-shard batches.
  uint64_t single_bytes = 0;
  for (uint32_t shard = 0; shard < 2; ++shard) {
    WriteBatch single;
    single.Put(key_for(shard, 1), std::string(100 * (shard + 1), 'c'));
    const uint64_t before = user_bytes();
    ASSERT_TRUE(db_->Write(WriteOptions(), &single).ok());
    single_bytes += user_bytes() - before;
  }
  EXPECT_GT(single_bytes, 300u);
  EXPECT_EQ(cross_bytes, single_bytes);
  // The bytes come without a write count: only the two single-shard
  // batches went through the write path's RecordWrite.
  uint64_t writes = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.writes", &writes));
  EXPECT_EQ(writes, 2u);
}

// pmblade.stats.json carries the trace events every shard records, as the
// single engine's does: one renderer serves both.
TEST_F(ShardedDBTest, StatsJsonCarriesEveryShardsTraceEvents) {
  options_.num_shards = 2;
  Open();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "ev" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  std::string json;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  size_t pos = 0;
  ASSERT_TRUE(obs::JsonLint(json, &pos)) << "error at " << pos;
  EXPECT_EQ(json.find("\"events\":[]"), std::string::npos);
  // Both shards held keys, so each flushed and recorded its flush_end.
  size_t flush_ends = 0;
  for (size_t at = json.find("\"type\":\"flush_end\"");
       at != std::string::npos;
       at = json.find("\"type\":\"flush_end\"", at + 1)) {
    ++flush_ends;
  }
  EXPECT_EQ(flush_ends, 2u);
}

TEST_F(ShardedDBTest, ReopenRecoversEveryShardsWal) {
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; ++i) {
    std::string key = "wal" + std::to_string(i);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  // No flush: the close leaves everything in the shards' WALs, so the
  // reopen below replays all four (the destructor does not flush).
  Open();
  EXPECT_EQ(db_->num_shards(), kShards);
  for (const auto& kv : model) EXPECT_EQ(Get(kv.first), kv.second);

  // And the recovered data is still routed correctly.
  for (const auto& kv : model) {
    const uint32_t home = ShardedDB::ShardOfKey(kv.first, kShards);
    std::string value;
    EXPECT_TRUE(
        sharded()->shard(home)->Get(ReadOptions(), kv.first, &value).ok());
  }
}

TEST_F(ShardedDBTest, ShardCountIsPinnedByMarker) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "pinned", "v").ok());
  db_.reset();

  // Reopening with a different shard count must fail loudly...
  Options two = options_;
  two.num_shards = 2;
  std::unique_ptr<DB> db;
  Status s = DB::Open(two, dbname_, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // ...as must a single-shard open of the sharded directory.
  Options one = options_;
  one.num_shards = 1;
  s = DB::Open(one, dbname_, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // The pinned count still works.
  Open();
  EXPECT_EQ(Get("pinned"), "v");
}

TEST_F(ShardedDBTest, PropertiesAggregateAndBreakOutPerShard) {
  options_.block_cache_bytes = 64 << 10;
  Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "agg" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  // Summed property == the sum of the per-shard breakdown properties.
  uint64_t total = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.l0_bytes", &total));
  uint64_t summed = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    uint64_t one = 0;
    ASSERT_TRUE(db_->GetProperty(
        "pmblade.shard." + std::to_string(i) + ".lsm.l0_bytes", &one));
    summed += one;
  }
  EXPECT_EQ(total, summed);
  EXPECT_GT(total, 0u);

  // The facade's pmblade.writes sums the shards'.
  uint64_t shard_writes = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    uint64_t one = 0;
    ASSERT_TRUE(db_->GetProperty(
        "pmblade.shard." + std::to_string(i) + ".writes", &one));
    shard_writes += one;
  }
  uint64_t writes = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.writes", &writes));
  EXPECT_EQ(writes, shard_writes);
  EXPECT_EQ(writes, 200u);

  // The metrics snapshot carries both the summed aggregate and the
  // pmblade.shard.<i>.* breakdown, without double-counting the shared cache.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  EXPECT_NE(json.find("pmblade.shard.0."), std::string::npos);
  EXPECT_NE(json.find("pmblade.flush.count"), std::string::npos);
}

// Non-additive metrics fold by their own rule instead of summing: a value
// every shard shares counts once, a ratio is the ratio of the cross-shard
// sums, and a depth is the deepest shard's.
class ShardedSharedSsdTest : public ShardedDBTest {
 protected:
  SsdModel model_{[] {
    SsdModelOptions mopts;
    mopts.inject_latency = false;
    return mopts;
  }()};
};

TEST_F(ShardedSharedSsdTest, FacadeFoldsNonAdditiveMetrics) {
  options_.compaction_policy = "tiered";
  options_.ssd_model = &model_;  // one device behind all four shards
  Open();
  WriteOptions synced;
  synced.sync = true;
  const std::string value(100, 'v');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db_->Put(synced, "fold" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());

  const obs::MetricsSnapshot snap = db_->metrics_registry()->Snapshot();
  auto metric = [&snap](const std::string& name) {
    const obs::MetricSample* sample = snap.Find(name);
    EXPECT_NE(sample, nullptr) << name;
    return sample != nullptr ? sample->value : -1.0;
  };
  auto shard_metric = [&metric](uint32_t shard, const std::string& suffix) {
    return metric("pmblade.shard." + std::to_string(shard) + "." + suffix);
  };

  double syncs = 0, group_writes = 0, deepest = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(shard_metric(i, "policy"), 1.0);  // CompactionPolicyKind::kTiered
    syncs += shard_metric(i, "wal.syncs");
    group_writes += shard_metric(i, "write.group_writes");
    deepest = std::max(deepest, shard_metric(i, "lsm.max_ssd_level"));
  }
  EXPECT_EQ(metric("pmblade.policy"), 1.0);
  ASSERT_GT(syncs, 0.0);
  EXPECT_DOUBLE_EQ(metric("pmblade.write.writes_per_sync"),
                   group_writes / syncs);
  ASSERT_GE(deepest, 1.0);
  EXPECT_EQ(metric("pmblade.lsm.max_ssd_level"), deepest);
  uint64_t property = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.max_ssd_level", &property));
  EXPECT_EQ(static_cast<double>(property), deepest);
  // q_flush and the device counters come from the one shared model.
  EXPECT_EQ(metric("pmblade.io.q_flush"), shard_metric(0, "io.q_flush"));
  EXPECT_EQ(metric("pmblade.ssd.bytes_written"),
            shard_metric(0, "ssd.bytes_written"));
}

// ---------------------------------------------------------------------------
// Per-shard admission: a stalled shard must not shed idle-shard traffic.
// ---------------------------------------------------------------------------

// Env that delegates to PosixEnv but can hold SSTable writes of shard 0
// hostage: Append on any ".sst" path under a "/shard-0/" directory blocks
// until Unblock(). With the flush thread stuck there, shard 0's immutable
// memtable never drains and its write pressure climbs to kStall while every
// other shard stays at kNone.
class Shard0FlushBlockingEnv : public Env {
 public:
  Shard0FlushBlockingEnv() : base_(PosixEnv()) {}

  void Unblock() {
    std::lock_guard<std::mutex> lock(mu_);
    blocked_ = false;
    cv_.notify_all();
  }
  bool SawBlockedWrite() const {
    std::lock_guard<std::mutex> lock(mu_);
    return saw_blocked_write_;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    PMBLADE_RETURN_IF_ERROR(base_->NewWritableFile(fname, &file));
    if (fname.find("/shard-0/") != std::string::npos &&
        fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      result->reset(new BlockingFile(this, std::move(file)));
    } else {
      *result = std::move(file);
    }
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* r) override {
    return base_->NewSequentialFile(fname, r);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(fname, r);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class BlockingFile : public WritableFile {
   public:
    BlockingFile(Shard0FlushBlockingEnv* env,
                 std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      env_->WaitUntilUnblocked();
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    Shard0FlushBlockingEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void WaitUntilUnblocked() {
    std::unique_lock<std::mutex> lock(mu_);
    saw_blocked_write_ = true;
    cv_.wait(lock, [this] { return !blocked_; });
  }

  Env* base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = true;
  bool saw_blocked_write_ = false;
};

TEST_F(ShardedDBTest, StalledShardDoesNotShedIdleShardTraffic) {
  // Owned by the fixture, not the test body: the DB's Options copy and the
  // fixture's TearDown DestroyDB both keep pointing at this Env after the
  // test body returns.
  owned_env_ = std::make_unique<Shard0FlushBlockingEnv>();
  auto* blocking_env = static_cast<Shard0FlushBlockingEnv*>(owned_env_.get());
  // Whatever path exits the test (including a failed ASSERT), release the
  // hostage flush so the DB close in TearDown can drain instead of hanging.
  struct UnblockOnExit {
    Shard0FlushBlockingEnv* env;
    ~UnblockOnExit() { env->Unblock(); }
  } unblock_guard{blocking_env};
  options_.env = blocking_env;
  options_.l0_layout = L0Layout::kSstable;  // flushes go through the Env
  // Small memtable, but a few arena blocks worth: the arena allocates in
  // 4 KiB blocks, so the limit must sit several blocks up or the very first
  // put of a fresh memtable already reads as "full" and hard-stalls inside
  // the write instead of surfacing through GetWritePressure first.
  options_.memtable_bytes = 16 << 10;
  options_.write_slowdown_nanos = 1000;  // keep the slowdown phase quick
  Open();

  // Fill shard 0 until it reports a hard stall. Pressure is checked BEFORE
  // each put: the put after kStall would block inside the writer queue, so
  // the loop must never issue it.
  const std::string value(2048, 'x');
  bool stalled = false;
  for (int i = 0; i < 200 && !stalled; ++i) {
    if (db_->GetWritePressure(KeyForShard(0, 3)) == WritePressure::kStall) {
      stalled = true;
      break;
    }
    ASSERT_TRUE(
        db_->Put(WriteOptions(), KeyForShard(0, 100 + i), value).ok());
  }
  ASSERT_TRUE(stalled) << "shard 0 never reached kStall";
  // kStall is observable as soon as the immutable memtable exists; the flush
  // thread may not have reached the (blocked) SST write yet. It must get
  // there, so wait rather than assert the instantaneous state.
  for (int i = 0; i < 500 && !blocking_env->SawBlockedWrite(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(blocking_env->SawBlockedWrite());

  // The stall is confined to shard 0: keyed pressure for the other shards
  // is clean, the per-shard probe agrees, and the global (unkeyed) view
  // reports the worst shard.
  EXPECT_EQ(db_->GetShardWritePressure(0), WritePressure::kStall);
  for (uint32_t shard = 1; shard < kShards; ++shard) {
    EXPECT_EQ(db_->GetWritePressure(KeyForShard(shard, 3)),
              WritePressure::kNone)
        << "idle shard " << shard << " reports pressure";
    EXPECT_EQ(db_->GetShardWritePressure(shard), WritePressure::kNone);
  }
  EXPECT_EQ(db_->GetWritePressure(), WritePressure::kStall);

  // The RESP handler's default (keyed) admission: a SET bound for the
  // stalled shard is shed with -BUSY, the same SET bound for an idle shard
  // goes through. Before the keyed probe, the global kStall would have shed
  // both.
  net::ServerMetrics metrics;
  metrics.Register(db_->metrics_registry());
  net::CommandHandler handler(db_.get(), net::CommandHandlerOptions(),
                              &metrics, SystemClock());
  auto call = [&](const std::vector<std::string>& args) {
    std::string wire;
    net::EncodeBulkStringArray(args, &wire);
    net::RespParser parser;
    parser.Feed(wire.data(), wire.size());
    RespValue command;
    EXPECT_EQ(parser.Next(&command), net::RespParser::Result::kValue);
    std::string out;
    handler.Execute(command, &out);
    return out;
  };
  EXPECT_EQ(call({"SET", KeyForShard(0, 3), "v"}).substr(0, 5), "-BUSY");
  EXPECT_EQ(call({"SET", KeyForShard(1, 3), "v"}), "+OK\r\n");
  EXPECT_EQ(call({"GET", KeyForShard(1, 3)}), "$1\r\nv\r\n");
  // MSET sheds on the WORST pressure over its keys: mixing in one stalled-
  // shard key sheds the whole batch (it is atomic per shard, so admitting
  // half would be worse).
  EXPECT_EQ(call({"MSET", KeyForShard(1, 3), "v", KeyForShard(0, 3), "v"})
                .substr(0, 5),
            "-BUSY");
  // INFO surfaces the per-shard breakdown.
  std::string info = call({"INFO", "shards"});
  EXPECT_NE(info.find("# Shards"), std::string::npos);
  EXPECT_NE(info.find("shard0:write_pressure=stall"), std::string::npos);
  EXPECT_NE(info.find("shard1:write_pressure=none"), std::string::npos);

  // Let the hostage flush finish so the close can drain.
  blocking_env->Unblock();
  db_.reset();
}

// ---------------------------------------------------------------------------
// SCAN through the RESP handler: cross-shard merge, cursor resume, MATCH.
// ---------------------------------------------------------------------------

class ShardedCommandTest : public ShardedDBTest {
 protected:
  void SetUp() override {
    ShardedDBTest::SetUp();
    Open();
    metrics_.Register(db_->metrics_registry());
    handler_.reset(new net::CommandHandler(db_.get(), handler_options_,
                                           &metrics_, SystemClock()));
  }
  void TearDown() override {
    handler_.reset();
    ShardedDBTest::TearDown();
  }

  RespValue Call(const std::vector<std::string>& args) {
    std::string wire;
    net::EncodeBulkStringArray(args, &wire);
    net::RespParser parser;
    parser.Feed(wire.data(), wire.size());
    RespValue command;
    EXPECT_EQ(parser.Next(&command), net::RespParser::Result::kValue);
    std::string out;
    handler_->Execute(command, &out);
    net::RespParser reply_parser;
    reply_parser.Feed(out.data(), out.size());
    RespValue reply;
    EXPECT_EQ(reply_parser.Next(&reply), net::RespParser::Result::kValue)
        << "no reply for " << args[0];
    return reply;
  }

  net::ServerMetrics metrics_;
  net::CommandHandlerOptions handler_options_;
  std::unique_ptr<net::CommandHandler> handler_;
};

TEST_F(ShardedCommandTest, MGetMSetFanOutAcrossShards) {
  RespValue reply = Call({"MSET", "a", "1", "b", "2", "c", "3", "d", "4"});
  EXPECT_EQ(reply.type, RespValue::Type::kSimpleString);
  reply = Call({"MGET", "a", "missing", "c", "d"});
  ASSERT_EQ(reply.array.size(), 4u);
  EXPECT_EQ(reply.array[0].str, "1");
  EXPECT_EQ(reply.array[1].type, RespValue::Type::kNull);
  EXPECT_EQ(reply.array[2].str, "3");
  EXPECT_EQ(reply.array[3].str, "4");
  EXPECT_EQ(Call({"DEL", "a", "b", "nope"}).integer, 2);
  EXPECT_EQ(Call({"EXISTS", "a", "c"}).integer, 1);
}

TEST_F(ShardedCommandTest, ScanPagesTheMergedKeyspaceInOrder) {
  for (int i = 0; i < 60; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    Call({"SET", key, "v"});
  }
  // Keys this dense spread over every shard; the pages must still arrive
  // globally sorted with no duplicate or dropped key at page boundaries
  // (the cursor is the exclusive successor of the last returned key).
  std::vector<std::string> seen;
  std::string cursor = "0";
  int pages = 0;
  do {
    RespValue page = Call({"SCAN", cursor, "COUNT", "7"});
    ASSERT_EQ(page.array.size(), 2u);
    cursor = page.array[0].str;
    for (const RespValue& k : page.array[1].array) seen.push_back(k.str);
    ++pages;
    ASSERT_LE(pages, 30) << "cursor failed to terminate";
  } while (cursor != "0");
  ASSERT_EQ(seen.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    EXPECT_EQ(seen[i], key);
  }
  EXPECT_GE(pages, 8);

  // MATCH filters the merged stream, and writes racing the scan are fine.
  Call({"MSET", "user:1", "a", "user:2", "b"});
  RespValue page = Call({"SCAN", "0", "MATCH", "user:*", "COUNT", "100"});
  ASSERT_EQ(page.array.size(), 2u);
  EXPECT_EQ(page.array[0].str, "0");
  ASSERT_EQ(page.array[1].array.size(), 2u);
  EXPECT_EQ(page.array[1].array[0].str, "user:1");
  EXPECT_EQ(page.array[1].array[1].str, "user:2");
  EXPECT_EQ(Call({"DBSIZE"}).integer, 62);
}

// ---------------------------------------------------------------------------
// Multi-writer stress (TSan coverage for the sharded write/read/scan paths).
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, ConcurrentWritersReadersAndScansAreClean) {
  options_.memtable_bytes = 16 << 10;  // force flushes under the race
  Open();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> stop{false};

  // Each writer owns a disjoint key range; mixed puts, batches and deletes.
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key =
            "w" + std::to_string(t) + "-" + std::to_string(rng.Uniform(100));
        if (i % 7 == 6) {
          ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        } else if (i % 5 == 4) {
          WriteBatch batch;
          batch.Put(key, "batch");
          batch.Put(key + "-b", "batch");
          ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
        } else {
          ASSERT_TRUE(db_->Put(WriteOptions(), key, "v").ok());
        }
      }
    });
  }
  // Readers + a scanner race the writers across every shard.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Random rng(2000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        std::string key = "w" + std::to_string(rng.Uniform(kThreads)) + "-" +
                          std::to_string(rng.Uniform(100));
        std::string value;
        Status s = db_->Get(ReadOptions(), key, &value);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      }
    });
  }
  readers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        ASSERT_LT(prev, key) << "merged scan out of order";
        prev = std::move(key);
      }
      ASSERT_TRUE(it->status().ok());
    }
  });

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // Survivors are exactly what a serial replay of each thread's ops gives
  // (ranges are disjoint, so per-thread replay is the global truth).
  for (int t = 0; t < kThreads; ++t) {
    std::map<std::string, bool> alive;  // key -> present
    Random rng(1000 + t);
    for (int i = 0; i < kOpsPerThread; ++i) {
      std::string key =
          "w" + std::to_string(t) + "-" + std::to_string(rng.Uniform(100));
      if (i % 7 == 6) {
        alive[key] = false;
      } else if (i % 5 == 4) {
        alive[key] = true;
        alive[key + "-b"] = true;
      } else {
        alive[key] = true;
      }
    }
    for (const auto& kv : alive) {
      std::string value;
      Status s = db_->Get(ReadOptions(), kv.first, &value);
      if (kv.second) {
        EXPECT_TRUE(s.ok()) << kv.first << ": " << s.ToString();
      } else {
        EXPECT_TRUE(s.IsNotFound()) << kv.first;
      }
    }
  }
}

}  // namespace
}  // namespace pmblade
