// Failure-injection tests: a faulty Env that fails writes/syncs on command,
// corrupted on-media images, and the engine's behaviour under both. The
// engine must surface Status errors — never crash, never silently lose
// acknowledged data.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/db.h"
#include "core/manifest.h"
#include "core/sharded_db.h"
#include "memtable/wal.h"
#include "memtable/write_batch.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table.h"
#include "pmtable/pm_table_builder.h"
#include "tests/fault_env.h"
#include "util/random.h"

namespace pmblade {
namespace {

using test::FaultyEnv;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_fault_test";
    env_.reset(new FaultyEnv(PosixEnv()));
    options_ = Options();
    options_.env = env_.get();
    // The faults are injected through the Env, so the WAL stays on it.
    options_.wal_in_pm = false;
    options_.memtable_bytes = 32 << 10;
    options_.pm_pool_capacity = 32 << 20;
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }
  void TearDown() override {
    db_.reset();
    env_->fail_writes = false;
    env_->fail_new_files = false;
    DestroyDB(options_, dbname_);
  }

  std::string dbname_;
  std::unique_ptr<FaultyEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(FaultInjectionTest, WalWriteFailureSurfacesToPut) {
  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "before", "v").ok());
  env_->fail_writes = true;
  Status s = db_->Put(WriteOptions(), "during", "v");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  env_->fail_writes = false;
  // Earlier acknowledged data still readable.
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "before", &value).ok());
}

// A failed WAL append poisons the DB like a failed sync: the log's framing
// past the failure is unknown, so no later write may be acknowledged on it.
// Every write that was acknowledged must survive a reopen.
TEST_F(FaultInjectionTest, FailedWalAppendLosesNoAcknowledgedWrite) {
  options_.memtable_bytes = 8 << 20;  // no rotation: replay is the WAL
  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "before", "v").ok());
  env_->fail_writes = true;
  EXPECT_TRUE(db_->Put(WriteOptions(), "failed", "v").IsIOError());
  env_->fail_writes = false;

  const std::string value(200, 'v');
  std::vector<std::string> acked;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "after" + std::to_string(i);
    if (db_->Put(WriteOptions(), key, value).ok()) acked.push_back(key);
  }
  EXPECT_TRUE(acked.empty()) << acked.size() << " writes acknowledged on a "
                             << "log with a failed append";
  db_.reset();

  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  std::string got;
  EXPECT_TRUE(db_->Get(ReadOptions(), "before", &got).ok());
  size_t missing = 0;
  for (const std::string& key : acked) {
    if (!db_->Get(ReadOptions(), key, &got).ok()) ++missing;
  }
  EXPECT_EQ(missing, 0u) << "of " << acked.size() << " acknowledged writes";
  // The reopened DB accepts writes again.
  EXPECT_TRUE(db_->Put(WriteOptions(), "reopened", "v").ok());
}

// The txn path follows the same rule: a cross-shard batch whose prepare
// append failed poisons every participant, and reopen keeps the batch
// all-or-nothing.
TEST_F(FaultInjectionTest, FailedTxnAppendPoisonsEveryParticipant) {
  options_.num_shards = 2;
  options_.memtable_bytes = 8 << 20;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  std::string keys[2];
  for (uint32_t shard = 0; shard < 2; ++shard) {
    for (int i = 0; keys[shard].empty(); ++i) {
      std::string key = "k" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, 2) == shard) keys[shard] = key;
    }
  }
  WriteBatch batch;
  batch.Put(keys[0], "txn");
  batch.Put(keys[1], "txn");
  env_->fail_writes = true;
  EXPECT_FALSE(db_->Write(WriteOptions(), &batch).ok());
  env_->fail_writes = false;
  for (const std::string& key : keys) {
    EXPECT_FALSE(db_->Put(WriteOptions(), key, "after").ok()) << key;
  }
  db_.reset();

  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  std::string got[2];
  const bool found0 = db_->Get(ReadOptions(), keys[0], &got[0]).ok();
  const bool found1 = db_->Get(ReadOptions(), keys[1], &got[1]).ok();
  EXPECT_EQ(found0, found1) << "torn cross-shard batch";
  if (found0 && found1) {
    EXPECT_EQ(got[0], "txn");
    EXPECT_EQ(got[1], "txn");
  }
  EXPECT_TRUE(db_->Put(WriteOptions(), keys[0], "reopened").ok());
}

TEST_F(FaultInjectionTest, SyncFailureSurfacesOnSyncedWrite) {
  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  env_->fail_writes = true;
  WriteOptions wopts;
  wopts.sync = true;
  Status s = db_->Put(wopts, "k", "v");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST_F(FaultInjectionTest, RecoveryAfterMidFlushFailure) {
  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i), "v").ok());
  }
  // Fail after a handful more writes; the flush (WAL rotation + manifest)
  // will hit the fault.
  env_->writes_until_failure = 5;
  Status s = db_->FlushMemTable();
  env_->writes_until_failure = -1;
  // The flush may or may not have failed depending on where the countdown
  // landed; either way reopening must recover all acknowledged writes.
  (void)s;
  db_.reset();

  ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok());
  for (int i = 0; i < 100; ++i) {
    std::string value;
    Status rs = db_->Get(ReadOptions(), "key" + std::to_string(i), &value);
    EXPECT_TRUE(rs.ok()) << "key" << i << ": " << rs.ToString();
  }
}

TEST_F(FaultInjectionTest, OpenFailsCleanlyWhenFilesCannotBeCreated) {
  env_->fail_new_files = true;
  Status s = DB::Open(options_, dbname_, &db_);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(db_, nullptr);
}

// ---------------------------------------------------------------------------
// Media corruption
// ---------------------------------------------------------------------------

TEST(CorruptionTest, ManifestCrcDetectsBitFlips) {
  std::string dir = ::testing::TempDir() + "pmblade_corrupt_manifest";
  PosixEnv()->RemoveDirRecursively(dir);
  ASSERT_TRUE(PosixEnv()->CreateDir(dir).ok());

  ManifestState state;
  state.next_file_number = 7;
  state.last_sequence = 99;
  ManifestPartition part;
  part.id = 1;
  part.unsorted_pm_ids = {3, 2, 1};
  state.partitions.push_back(part);
  ASSERT_TRUE(WriteManifest(PosixEnv(), dir, &state ? state : state).ok());

  // Round-trips intact...
  ManifestState loaded;
  ASSERT_TRUE(ReadManifest(PosixEnv(), dir, &loaded).ok());
  EXPECT_EQ(loaded.next_file_number, 7u);
  ASSERT_EQ(loaded.partitions.size(), 1u);
  EXPECT_EQ(loaded.partitions[0].unsorted_pm_ids,
            (std::vector<uint64_t>{3, 2, 1}));

  // ...and any flipped byte is caught by the CRC.
  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(PosixEnv(), dir + "/MANIFEST", &contents).ok());
  Random rnd(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::string damaged = contents;
    damaged[rnd.Uniform(damaged.size())] ^= 0x40;
    ASSERT_TRUE(
        WriteStringToFile(PosixEnv(), damaged, dir + "/MANIFEST").ok());
    Status s = ReadManifest(PosixEnv(), dir, &loaded);
    EXPECT_FALSE(s.ok()) << "trial " << trial;
  }
  PosixEnv()->RemoveDirRecursively(dir);
}

TEST(CorruptionTest, PmTableHeaderCrcDetectsBitFlips) {
  std::string path = ::testing::TempDir() + "pmblade_corrupt_pmtable.pm";
  ::remove(path.c_str());
  PmPoolOptions popts;
  popts.capacity = 16 << 20;
  popts.latency.inject_latency = false;
  std::unique_ptr<PmPool> pool;
  ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());

  PmTableBuilder builder(pool.get(), PmTableOptions{});
  for (int i = 0; i < 100; ++i) {
    std::string ikey;
    AppendInternalKey(&ikey, "t|key" + std::to_string(1000 + i), 5,
                      kTypeValue);
    builder.Add(ikey, "value");
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  uint64_t id = table->id();
  table.reset();

  // Flip a header byte in place; reopening must fail with Corruption.
  char* data = pool->DataFor(id);
  ASSERT_NE(data, nullptr);
  data[8] ^= 0x1;  // num_groups field
  std::shared_ptr<PmTable> reopened;
  Status s = PmTable::Open(pool.get(), id, &reopened);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  data[8] ^= 0x1;  // restore
  EXPECT_TRUE(PmTable::Open(pool.get(), id, &reopened).ok());

  pool.reset();
  ::remove(path.c_str());
}

TEST(CorruptionTest, PoolHeaderCorruptionDetectedAtOpen) {
  std::string path = ::testing::TempDir() + "pmblade_corrupt_pool.pm";
  ::remove(path.c_str());
  PmPoolOptions popts;
  popts.capacity = 4 << 20;
  {
    std::unique_ptr<PmPool> pool;
    ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());
  }
  // Damage the magic.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fputc('X', f);
  fclose(f);
  std::unique_ptr<PmPool> pool;
  Status s = PmPool::Open(path, popts, &pool);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ::remove(path.c_str());
}

}  // namespace
}  // namespace pmblade
