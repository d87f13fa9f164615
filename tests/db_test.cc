// Integration tests for pmblade::DB: CRUD, snapshots, iterators, flush,
// internal/major compaction, recovery, properties, and the paper's
// configuration matrix (PM table / array / SSD level-0 layouts).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/statistics.h"
#include "util/random.h"
#include "util/sync_point.h"
#include "util/zipfian.h"

namespace pmblade {
namespace {

class DBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_db_test";
    Options defaults;
    DestroyDB(defaults, dbname_);
    options_ = Options();
    options_.memtable_bytes = 64 << 10;  // small: frequent flushes
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.cost.tau_m = 16 << 20;
    options_.cost.tau_t = 8 << 20;
    options_.cost.tau_w = 256 << 10;
    options_.partition_boundaries = {"g", "n", "t"};  // 4 partitions
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

  void Reopen() { Open(); }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  /// The numeric property `name`; a failed read fails the test.
  uint64_t Property(const std::string& name) {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGetDelete) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "key1", "value1").ok());
  EXPECT_EQ(Get("key1"), "value1");
  ASSERT_TRUE(db_->Put(WriteOptions(), "key1", "value2").ok());
  EXPECT_EQ(Get("key1"), "value2");
  ASSERT_TRUE(db_->Delete(WriteOptions(), "key1").ok());
  EXPECT_EQ(Get("key1"), "NOT_FOUND");
  EXPECT_EQ(Get("never-written"), "NOT_FOUND");
}

TEST_F(DBTest, WriteBatchIsAtomicallyVisible) {
  Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(Get("a"), "NOT_FOUND");
  EXPECT_EQ(Get("b"), "2");
}

TEST_F(DBTest, GetAfterFlush) {
  Open();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), "value" + std::to_string(i));
  }
  uint64_t unsorted = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.unsorted_tables", &unsorted));
  EXPECT_GT(unsorted, 0u);
}

TEST_F(DBTest, FlushRoutesAcrossPartitions) {
  Open();
  // Keys hitting all four partitions (boundaries g, n, t).
  ASSERT_TRUE(db_->Put(WriteOptions(), "apple", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "grape", "2").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "peach", "3").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "zebra", "4").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  uint64_t unsorted = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.unsorted_tables", &unsorted));
  EXPECT_EQ(unsorted, 4u);  // one table per touched partition
  EXPECT_EQ(Get("apple"), "1");
  EXPECT_EQ(Get("grape"), "2");
  EXPECT_EQ(Get("peach"), "3");
  EXPECT_EQ(Get("zebra"), "4");
}

TEST_F(DBTest, UpdatesAcrossFlushesReturnNewest) {
  Open();
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           "round" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), "round4");
  }
}

TEST_F(DBTest, DeleteShadowsFlushedValue) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "doomed", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "doomed").ok());
  EXPECT_EQ(Get("doomed"), "NOT_FOUND");
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(Get("doomed"), "NOT_FOUND");
}

TEST_F(DBTest, SnapshotIsolation) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "old").ok());
  uint64_t snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "new").ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ(value, "old");
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "new");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndInternalCompaction) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "old").ok());
  uint64_t snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "new").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ(value, "old");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, IteratorFullScan) {
  Open();
  std::map<std::string, std::string> model;
  Random rnd(301);
  for (int i = 0; i < 500; ++i) {
    std::string key;
    rnd.RandomString(10, &key);
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    if (i % 100 == 99) { ASSERT_TRUE(db_->FlushMemTable().ok()); }
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(DBTest, IteratorSkipsDeletedAndOldVersions) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "old").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "3").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "new").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "c").ok());

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "a");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "b");
  EXPECT_EQ(it->value().ToString(), "new");
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, IteratorSeekAndRange) {
  Open();
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->Seek("k0031");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k0032");
  int count = 0;
  for (; it->Valid() && it->key().ToString() < "k0050"; it->Next()) ++count;
  EXPECT_EQ(count, 9);  // k0032..k0048
}

TEST_F(DBTest, IteratorBackward) {
  Open();
  for (int i = 0; i < 20; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  // Add some overwrites + a delete to exercise version skipping.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k05", "fresh").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k06").ok());

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k19");
  int seen = 0;
  std::string prev = "zzz";
  for (; it->Valid(); it->Prev()) {
    EXPECT_LT(it->key().ToString(), prev);
    prev = it->key().ToString();
    if (prev == "k05") { EXPECT_EQ(it->value().ToString(), "fresh"); }
    EXPECT_NE(prev, "k06");  // deleted
    ++seen;
  }
  EXPECT_EQ(seen, 19);  // 20 keys - 1 deleted
}

TEST_F(DBTest, InternalCompactionPreservesData) {
  Open();
  std::map<std::string, std::string> model;
  Random rnd(7);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 80; ++i) {
      std::string key = "key" + std::to_string(rnd.Uniform(200));
      std::string value = "r" + std::to_string(round) + "-" +
                          std::to_string(i);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  ASSERT_TRUE(db_->CompactLevel0().ok());
  uint64_t unsorted = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.unsorted_tables", &unsorted));
  EXPECT_EQ(unsorted, 0u);
  for (auto& [k, v] : model) {
    EXPECT_EQ(Get(k), v) << k;
  }
}

TEST_F(DBTest, MajorCompactionMovesDataToL1) {
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(1000 + i);
    std::string value(200, 'a' + (i % 26));
    model[key] = value;
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db_->CompactToLevel1(/*respect_cost_model=*/false).ok());

  uint64_t l0 = 1, l1 = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.l0_bytes", &l0));
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.l1_bytes", &l1));
  EXPECT_EQ(l0, 0u);
  EXPECT_GT(l1, 0u);
  for (auto& [k, v] : model) {
    EXPECT_EQ(Get(k), v) << k;
  }
  // Scans still work across L1.
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  size_t count = 0;
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, model.size());
}

TEST_F(DBTest, UpdatesAfterMajorCompactionWin) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "in-l1").ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "in-l0").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(Get("k"), "in-l0");
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "in-mem").ok());
  EXPECT_EQ(Get("k"), "in-mem");
}

TEST_F(DBTest, RecoveryFromWal) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "durable", "yes").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "volatile", "maybe").ok());
  Reopen();  // destructor closes cleanly; WAL replays unflushed writes
  EXPECT_EQ(Get("durable"), "yes");
  EXPECT_EQ(Get("volatile"), "maybe");
}

TEST_F(DBTest, RecoveryFromPmLevel0) {
  Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "pm" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Reopen();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(Get("pm" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST_F(DBTest, RecoveryFromL1AndSequenceContinues) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "deep", "l1-value").ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  Reopen();
  EXPECT_EQ(Get("deep"), "l1-value");
  // New writes after recovery must shadow recovered data.
  ASSERT_TRUE(db_->Put(WriteOptions(), "deep", "newer").ok());
  EXPECT_EQ(Get("deep"), "newer");
  Reopen();
  EXPECT_EQ(Get("deep"), "newer");
}

TEST_F(DBTest, RecoveryAfterMixedState) {
  Open();
  // L1 data, sorted L0, unsorted L0 and WAL data all at once.
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "l1").ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "sorted").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "unsorted").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "d", "wal-only").ok());
  Reopen();
  EXPECT_EQ(Get("a"), "l1");
  EXPECT_EQ(Get("b"), "sorted");
  EXPECT_EQ(Get("c"), "unsorted");
  EXPECT_EQ(Get("d"), "wal-only");
}

TEST_F(DBTest, AutomaticFlushOnMemtableFull) {
  Open();
  std::string big_value(4096, 'x');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "big" + std::to_string(i), big_value).ok());
  }
  EXPECT_GT(Property("pmblade.flush.count"), 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(Get("big" + std::to_string(i)), big_value);
  }
}

TEST_F(DBTest, StatisticsTrackReadSources) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "memkey", "1").ok());
  (void)Get("memkey");
  EXPECT_EQ(Property("pmblade.reads.memtable"), 1u);

  ASSERT_TRUE(db_->FlushMemTable().ok());
  (void)Get("memkey");
  EXPECT_EQ(Property("pmblade.reads.pm_l0"), 1u);

  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  (void)Get("memkey");
  EXPECT_EQ(Property("pmblade.reads.ssd_l1"), 1u);

  (void)Get("missing");
  EXPECT_EQ(Property("pmblade.reads.miss"), 1u);
  // Every Get is one latency sample (a histogram reads as its count).
  EXPECT_EQ(Property("pmblade.latency.get"), 4u);
  // The hit ratio counts only answered reads: 2 fast of 3.
  EXPECT_DOUBLE_EQ(PmHitRatio(*db_->metrics_registry()), 2.0 / 3.0);
}

TEST_F(DBTest, StatisticsTrackWritesFlushesAndCompactions) {
  Open();
  uint64_t expected_bytes = 0;
  for (const char* key : {"apple", "zebra"}) {
    WriteBatch batch;
    batch.Put(key, "value");
    expected_bytes += batch.ApproximateSize();
    ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  }
  EXPECT_EQ(Property("pmblade.writes"), 2u);
  EXPECT_EQ(Property("pmblade.write.user_bytes"), expected_bytes);
  EXPECT_EQ(Property("pmblade.latency.put"), 2u);
  EXPECT_EQ(Property("pmblade.flush.count"), 0u);

  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(Property("pmblade.flush.count"), 1u);
  ASSERT_TRUE(db_->CompactLevel0().ok());
  EXPECT_GE(Property("pmblade.compaction.internal.count"), 1u);
  EXPECT_GT(Property("pmblade.compaction.internal.bytes_in"), 0u);
  EXPECT_GT(Property("pmblade.compaction.internal.bytes_out"), 0u);
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  EXPECT_GE(Property("pmblade.compaction.major.count"), 1u);
  EXPECT_GT(Property("pmblade.compaction.major.bytes"), 0u);
  (void)Get("apple");  // answered by the SSD now

  // The "pmblade.stats" summary renders the same counters.
  std::string summary;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats", &summary));
  EXPECT_NE(summary.find("ssd=1 miss=0 (pm-hit 0.0%)"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("writes=2 (" + std::to_string(expected_bytes) +
                         " B) scans=0"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("flushes=1 internal-compactions="), std::string::npos)
      << summary;
}

TEST_F(DBTest, PropertiesExist) {
  Open();
  uint64_t value = 0;
  EXPECT_TRUE(db_->GetProperty("pmblade.lsm.num_partitions", &value));
  EXPECT_EQ(value, 4u);
  EXPECT_TRUE(db_->GetProperty("pmblade.lsm.l0_bytes", &value));
  EXPECT_TRUE(db_->GetProperty("pmblade.lsm.l1_bytes", &value));
  EXPECT_TRUE(db_->GetProperty("pmblade.pm.used_bytes", &value));
  EXPECT_FALSE(db_->GetProperty("pmblade.nonsense", &value));
}

TEST_F(DBTest, EmptyDbIteratorAndGet) {
  Open();
  EXPECT_EQ(Get("anything"), "NOT_FOUND");
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->SeekToLast();
  EXPECT_FALSE(it->Valid());
}

// ---------------------------------------------------------------------------
// Eq. 2's inputs: n_w counts every entry a write inserts, and n_u the deletes
// plus the Puts whose key the active memtable held before that write's
// payload. Each check after a flush records them in its internal_decision
// event; with fewer than four unsorted tables and no reads no internal
// compaction runs, so they accumulate.
// ---------------------------------------------------------------------------

class Eq2CountTest : public DBTest {
 protected:
  using Counts = std::pair<uint64_t, uint64_t>;  // (n_w, n_u)

  void SetUp() override {
    DBTest::SetUp();
    options_.partition_boundaries.clear();  // one partition
  }

  /// (n_w, n_u) of the latest internal_decision event, after a flush that
  /// evaluates them.
  Counts FlushAndReadCounts() {
    EXPECT_TRUE(db_->FlushMemTable().ok());
    const std::vector<obs::Event> events =
        static_cast<DBImpl*>(db_.get())->TraceEvents();
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->type == obs::EventType::kInternalDecision) {
        return {static_cast<uint64_t>(it->FieldOr("n_w", -1)),
                static_cast<uint64_t>(it->FieldOr("n_u", -1))};
      }
    }
    ADD_FAILURE() << "no internal_decision event";
    return {0, 0};
  }
};

TEST_F(Eq2CountTest, BatchesDeletesAndRewrites) {
  Open();
  // A batch that repeats a key: nothing was there before the batch.
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("a", "2");
  batch.Put("b", "1");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(FlushAndReadCounts(), Counts(3, 0));

  // Flushed keys are not in the active memtable; a delete always counts.
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "3").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "nothing").ok());
  EXPECT_EQ(FlushAndReadCounts(), Counts(5, 1));

  // Rewrites within one memtable, by a later write and within a batch.
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "2").ok());
  WriteBatch rewrite;
  rewrite.Put("c", "3");
  rewrite.Put("c", "4");
  rewrite.Delete("c");
  ASSERT_TRUE(db_->Write(WriteOptions(), &rewrite).ok());
  EXPECT_EQ(FlushAndReadCounts(), Counts(10, 5));
}

#ifdef PMBLADE_SYNC_POINTS
TEST_F(Eq2CountTest, TxnGroupAndImmutableMemtable) {
  options_.memtable_bytes = 16 << 10;
  Open();
  auto* impl = static_cast<DBImpl*>(db_.get());
  SyncPoint* sp = SyncPoint::GetInstance();

  // Two prepared transactions writing the same key, committed while a
  // batch leader holds the writer queue, so both commits usually share
  // one txn group. Either way the second commit's key is an update.
  for (uint64_t txn : {1, 2}) {
    WriteBatch sub;
    sub.Put("x", "t" + std::to_string(txn));
    ASSERT_TRUE(impl->PrepareTxn(WriteOptions(), txn, {0}, &sub).ok());
  }
  std::atomic<bool> leader_in{false};
  std::atomic<bool> release{false};
  sp->SetCallBack("DBImpl::Write:AfterWalAppend", [&](void*) {
    if (leader_in.exchange(true)) return;
    while (!release.load()) std::this_thread::yield();
  });
  sp->EnableProcessing();
  std::thread leader([&] {
    EXPECT_TRUE(db_->Put(WriteOptions(), "leader", "v").ok());
  });
  while (!leader_in.load()) std::this_thread::yield();
  std::thread commit1(
      [&] { EXPECT_TRUE(impl->CommitTxn(WriteOptions(), 1).ok()); });
  std::thread commit2(
      [&] { EXPECT_TRUE(impl->CommitTxn(WriteOptions(), 2).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release = true;
  leader.join();
  commit1.join();
  commit2.join();
  sp->DisableProcessing();
  sp->ClearAllCallBacks();
  EXPECT_EQ(FlushAndReadCounts(), Counts(3, 1));

  // A key only the immutable memtable holds, its flush held back: the
  // rewrite lands in the new memtable, which never saw the key.
  std::atomic<bool> flush_in{false};
  release = false;
  sp->SetCallBack("DBImpl::BackgroundFlush:Start", [&](void*) {
    flush_in = true;
    while (!release.load()) std::this_thread::yield();
  });
  sp->EnableProcessing();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "filler", std::string(32 << 10, 'f'))
                  .ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "2").ok());  // rotates first
  for (int i = 0; i < 5000 && !flush_in.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flush_in.load());  // the rotated memtable's flush, held
  release = true;
  EXPECT_EQ(FlushAndReadCounts(), Counts(6, 1));
  sp->Reset();
}
#endif  // PMBLADE_SYNC_POINTS

// ---------------------------------------------------------------------------
// Configuration matrix: the paper's ablation configurations must all pass
// the same correctness battery.
// ---------------------------------------------------------------------------

struct ConfigCase {
  const char* name;
  L0Layout layout;
  bool cost_model;
};

class DBConfigTest : public ::testing::TestWithParam<ConfigCase> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_dbcfg_test";
    Options defaults;
    DestroyDB(defaults, dbname_);
    options_ = Options();
    options_.memtable_bytes = 32 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.l0_layout = GetParam().layout;
    options_.enable_cost_model = GetParam().cost_model;
    options_.l0_table_trigger = 6;
    options_.cost.tau_w = 64 << 10;
    options_.partition_boundaries = {"key3", "key6"};
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    db_ = std::move(db);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBConfigTest, RandomWorkloadAgainstModel) {
  Random rnd(GetParam().layout == L0Layout::kSstable ? 11 : 13);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 3000; ++op) {
    int key_num = static_cast<int>(rnd.Uniform(300));
    std::string key = "key" + std::to_string(key_num);
    if (rnd.OneIn(10)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      std::string value;
      rnd.RandomBytes(rnd.Uniform(256), &value);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
    if (op % 500 == 499) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    if (op % 1100 == 1099) {
      ASSERT_TRUE(db_->CompactToLevel1(true).ok());
    }
  }
  // Point reads match the model.
  for (int i = 0; i < 300; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(value, it->second) << key;
    }
  }
  // Scan matches the model exactly.
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid()) << "missing " << k;
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DBConfigTest,
    ::testing::Values(
        ConfigCase{"PMBlade", L0Layout::kPmTable, true},
        ConfigCase{"PMB_PI_array", L0Layout::kArrayTable, true},
        ConfigCase{"PMB_P_no_internal", L0Layout::kArrayTable, false},
        ConfigCase{"PMBlade_SSD", L0Layout::kSstable, true},
        ConfigCase{"PMBlade_PM_conventional", L0Layout::kPmTable, false}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pmblade
