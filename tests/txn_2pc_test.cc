// Tests for cross-shard two-phase commit (src/core/sharded_db.cc,
// src/core/db_write.cc txn path, src/memtable/txn_record.h):
//   * the txn record codec round-trips and rejects garbage,
//   * the fast-path exemption, PROVEN BY WAL INSPECTION: a num_shards=1
//     engine and single-shard batches on a sharded engine write zero txn
//     records — their WALs are byte-for-byte plain batch reps,
//   * cross-shard batches write prepare + commit records on every
//     participant and survive clean reopens intact,
//   * recovery resolution: all prepares durable and no commit marker =>
//     COMMIT; a missing participant prepare => ROLL BACK — reopen is
//     all-or-nothing either way,
//   * the pmblade.txn.* metrics move.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/sharded_db.h"
#include "env/env.h"
#include "env/filename.h"
#include "memtable/txn_record.h"
#include "memtable/wal.h"
#include "memtable/write_batch.h"
#include "pm/pm_log.h"
#include "pm/pm_pool.h"

namespace pmblade {
namespace {

constexpr uint32_t kShards = 4;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(TxnRecordTest, PrepareRoundTrip) {
  WriteBatch batch;
  batch.Put("alpha", "1");
  batch.Delete("beta");
  std::string encoded;
  EncodePrepareRecord(42, {0, 2, 3}, batch.rep(), &encoded);
  ASSERT_TRUE(IsTxnRecord(encoded));

  TxnRecord record;
  ASSERT_TRUE(DecodeTxnRecord(encoded, &record).ok());
  EXPECT_EQ(record.type, TxnRecordType::kPrepare);
  EXPECT_EQ(record.txn_id, 42u);
  EXPECT_EQ(record.participants, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(record.payload.ToString(), batch.rep());
}

TEST(TxnRecordTest, CommitAndRollbackRoundTrip) {
  std::string commit, rollback;
  EncodeCommitRecord(7, 123456, &commit);
  EncodeRollbackRecord(7, &rollback);
  ASSERT_TRUE(IsTxnRecord(commit));
  ASSERT_TRUE(IsTxnRecord(rollback));

  TxnRecord record;
  ASSERT_TRUE(DecodeTxnRecord(commit, &record).ok());
  EXPECT_EQ(record.type, TxnRecordType::kCommit);
  EXPECT_EQ(record.txn_id, 7u);
  EXPECT_EQ(record.base_seq, 123456u);
  ASSERT_TRUE(DecodeTxnRecord(rollback, &record).ok());
  EXPECT_EQ(record.type, TxnRecordType::kRollback);
  EXPECT_EQ(record.txn_id, 7u);
}

TEST(TxnRecordTest, BatchRepsAreNeverMistakenForTxnRecords) {
  // A rep's first 8 bytes are its base sequence, bounded well below the
  // all-ones magic — the discriminator the WAL replay relies on.
  WriteBatch batch;
  batch.Put("k", "v");
  EXPECT_FALSE(IsTxnRecord(batch.rep()));

  TxnRecord record;
  EXPECT_FALSE(DecodeTxnRecord(batch.rep(), &record).ok());
  std::string truncated(8, '\xff');
  EXPECT_FALSE(DecodeTxnRecord(truncated, &record).ok());
  std::string bad_tag(8, '\xff');
  bad_tag.push_back('\x09');
  EXPECT_FALSE(DecodeTxnRecord(bad_tag, &record).ok());
}

// ---------------------------------------------------------------------------
// WAL inspection fixture
// ---------------------------------------------------------------------------

/// Parameter: Options::wal_in_pm — every case runs on both WAL devices.
class Txn2pcTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_txn_2pc_test";
    options_ = Options();
    options_.wal_in_pm = GetParam();
    options_.num_shards = kShards;
    options_.pm_pool_capacity = 8 << 20;
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

  ShardedDB* sharded() { return static_cast<ShardedDB*>(db_.get()); }

  static std::string KeyForShard(uint32_t shard, int salt) {
    for (int i = 0;; ++i) {
      std::string key = "t" + std::to_string(salt) + "-" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, kShards) == shard) return key;
    }
  }

  /// Every logical record in every "wal-*.log" of the (closed) engine in
  /// `dir`, on either WAL device.
  std::vector<std::string> WalRecords(const std::string& dir) {
    PmPoolOptions popts;
    popts.capacity = options_.pm_pool_capacity;
    popts.latency.inject_latency = false;
    std::unique_ptr<PmPool> pool;
    EXPECT_TRUE(PmPool::Open(dir + "/pool.pm", popts, &pool).ok()) << dir;
    if (pool == nullptr) return {};
    PmLogEnv log_env(pool.get(), PosixEnv(), /*create_in_pm=*/false);
    Env* env = &log_env;
    std::vector<std::string> children;
    EXPECT_TRUE(env->GetChildren(dir, &children).ok()) << dir;
    std::vector<std::string> records;
    for (const std::string& child : children) {
      uint64_t number = 0;
      if (!ParseWalFileName(child, &number)) continue;
      std::unique_ptr<SequentialFile> file;
      if (!env->NewSequentialFile(dir + "/" + child, &file).ok()) {
        ADD_FAILURE() << "cannot open " << child;
        continue;
      }
      wal::Reader reader(file.get(), nullptr);
      Slice record;
      std::string scratch;
      while (reader.ReadRecord(&record, &scratch)) {
        records.push_back(record.ToString());
      }
    }
    return records;
  }

  struct TxnRecordCensus {
    int prepares = 0;
    int commits = 0;
    int rollbacks = 0;
    int plain_batches = 0;
    int total() const { return prepares + commits + rollbacks; }
  };

  TxnRecordCensus CountShardWalRecords(uint32_t shard) {
    TxnRecordCensus census;
    const std::string dir = ShardedDB::ShardDirName(dbname_, shard);
    for (const std::string& record : WalRecords(dir)) {
      if (!IsTxnRecord(record)) {
        ++census.plain_batches;
        continue;
      }
      TxnRecord txn;
      EXPECT_TRUE(DecodeTxnRecord(record, &txn).ok());
      switch (txn.type) {
        case TxnRecordType::kPrepare: ++census.prepares; break;
        case TxnRecordType::kCommit: ++census.commits; break;
        case TxnRecordType::kRollback: ++census.rollbacks; break;
      }
    }
    return census;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// ---------------------------------------------------------------------------
// Fast-path exemption, verified by reading the WAL bytes back
// ---------------------------------------------------------------------------

TEST_P(Txn2pcTest, SingleShardEngineWritesNoTxnRecords) {
  options_.num_shards = 1;
  Open();
  for (int i = 0; i < 32; ++i) {
    WriteBatch batch;
    batch.Put("a" + std::to_string(i), "1");
    batch.Put("b" + std::to_string(i), "2");
    batch.Delete("a" + std::to_string(i / 2));
    ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  }
  db_.reset();  // settle the WAL before reading it

  int plain = 0;
  for (const std::string& record : WalRecords(dbname_)) {
    EXPECT_FALSE(IsTxnRecord(record))
        << "num_shards=1 must never pay for 2PC records";
    ++plain;
  }
  EXPECT_GT(plain, 0) << "expected the batches in the WAL";
}

TEST_P(Txn2pcTest, SingleParticipantBatchesSkip2pcOnShardedEngine) {
  Open();
  // Every batch lands wholly on one shard: the facade must route it down
  // the plain group-commit path, leaving zero txn records anywhere.
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    for (int i = 0; i < 8; ++i) {
      WriteBatch batch;
      batch.Put(KeyForShard(shard, 100 + i), "v");
      batch.Put(KeyForShard(shard, 200 + i), "w");
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    }
  }
  db_.reset();

  for (uint32_t shard = 0; shard < kShards; ++shard) {
    TxnRecordCensus census = CountShardWalRecords(shard);
    EXPECT_EQ(census.total(), 0)
        << "shard " << shard << " paid 2PC for single-shard batches";
    EXPECT_GT(census.plain_batches, 0) << "shard " << shard;
  }
}

TEST_P(Txn2pcTest, CrossShardBatchWritesPrepareAndCommitEverywhere) {
  Open();
  WriteBatch batch;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    batch.Put(KeyForShard(shard, 7), "x" + std::to_string(shard));
  }
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  db_.reset();

  for (uint32_t shard = 0; shard < kShards; ++shard) {
    TxnRecordCensus census = CountShardWalRecords(shard);
    EXPECT_GE(census.prepares, 1) << "shard " << shard;
    EXPECT_GE(census.commits, 1) << "shard " << shard;
    EXPECT_EQ(census.rollbacks, 0) << "shard " << shard;
  }

  // And the data is all there after reopen (recovery replays the fences).
  Open();
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(ReadOptions(), KeyForShard(shard, 7), &value).ok());
    EXPECT_EQ(value, "x" + std::to_string(shard));
  }
}

// ---------------------------------------------------------------------------
// Clean-reopen correctness and recovery resolution
// ---------------------------------------------------------------------------

TEST_P(Txn2pcTest, CrossShardBatchesSurviveReopenIntact) {
  Open();
  std::map<std::string, std::string> model;
  for (int round = 0; round < 30; ++round) {
    WriteBatch batch;
    for (uint32_t shard = 0; shard < kShards; ++shard) {
      const std::string key = KeyForShard(shard, 1000 + round);
      const std::string value = "r" + std::to_string(round);
      batch.Put(key, value);
      model[key] = value;
    }
    ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    if (round == 15) ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  Open();  // clean reopen, including post-flush WAL carry-forward state
  for (const auto& kv : model) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), kv.first, &value).ok()) << kv.first;
    EXPECT_EQ(value, kv.second);
  }
}

TEST_P(Txn2pcTest, AllPreparesDurableResolvesToCommitOnReopen) {
  Open();
  // Simulate a crash between phase 1 and phase 2: every participant holds
  // a durable prepare, none holds a commit marker. Resolution must COMMIT.
  const uint64_t txn_id = 999;
  const std::vector<uint32_t> participants{0, 1};
  for (uint32_t shard : participants) {
    WriteBatch sub;
    sub.Put(KeyForShard(shard, 5000), "resolved");
    ASSERT_TRUE(sharded()
                    ->shard(shard)
                    ->PrepareTxn(WriteOptions(), txn_id, participants, &sub)
                    .ok());
  }
  db_.reset();  // no commit phase — the "crash"

  Open();
  for (uint32_t shard : participants) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(ReadOptions(), KeyForShard(shard, 5000), &value).ok())
        << "shard " << shard << " lost its resolved-commit half";
    EXPECT_EQ(value, "resolved");
  }
  uint64_t resolved = 0;
  ASSERT_TRUE(
      db_->GetProperty("pmblade.txn.resolved_commit", &resolved));
  EXPECT_GE(resolved, 1u);
}

TEST_P(Txn2pcTest, MissingPrepareResolvesToRollbackOnReopen) {
  Open();
  // Crash mid-phase-1: shard 0 prepared, shard 1 (a named participant)
  // never did. Resolution must ROLL BACK — neither half may surface.
  const uint64_t txn_id = 1000;
  const std::vector<uint32_t> participants{0, 1};
  WriteBatch sub;
  sub.Put(KeyForShard(0, 6000), "half");
  ASSERT_TRUE(sharded()
                  ->shard(0)
                  ->PrepareTxn(WriteOptions(), txn_id, participants, &sub)
                  .ok());
  db_.reset();

  Open();
  std::string value;
  EXPECT_TRUE(
      db_->Get(ReadOptions(), KeyForShard(0, 6000), &value).IsNotFound())
      << "half-prepared txn leaked into the keyspace";
  uint64_t rolled_back = 0;
  ASSERT_TRUE(
      db_->GetProperty("pmblade.txn.resolved_rollback", &rolled_back));
  EXPECT_GE(rolled_back, 1u);

  // The facade swept the retained state: a fresh reopen sees nothing
  // in doubt and new txn ids stay above the replayed maximum.
  db_.reset();
  Open();
  uint64_t in_doubt = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.txn.in_doubt", &in_doubt));
  EXPECT_EQ(in_doubt, 0u);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_P(Txn2pcTest, TxnMetricsMove) {
  Open();
  uint64_t prepared = 0, committed = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.txn.prepared", &prepared));
  ASSERT_TRUE(db_->GetProperty("pmblade.txn.committed", &committed));
  EXPECT_EQ(prepared, 0u);
  EXPECT_EQ(committed, 0u);

  WriteBatch batch;
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    batch.Put(KeyForShard(shard, 77), "m");
  }
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());

  ASSERT_TRUE(db_->GetProperty("pmblade.txn.prepared", &prepared));
  ASSERT_TRUE(db_->GetProperty("pmblade.txn.committed", &committed));
  EXPECT_EQ(prepared, kShards);   // one prepare per participant
  EXPECT_EQ(committed, kShards);  // one commit marker per participant

  // Single-shard writes leave the txn counters alone.
  ASSERT_TRUE(db_->Put(WriteOptions(), "solo", "s").ok());
  uint64_t prepared_after = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.txn.prepared", &prepared_after));
  EXPECT_EQ(prepared_after, prepared);
}

INSTANTIATE_TEST_SUITE_P(WalDevice, Txn2pcTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PmWal" : "SsdWal";
                         });

}  // namespace
}  // namespace pmblade
