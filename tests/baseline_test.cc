// Tests for the baseline engines: the conventional leveled LSM and the
// MatrixKV-style store, plus the shared LeveledStore.

#include <gtest/gtest.h>

#include <map>

#include "baseline/leveled_db.h"
#include "baseline/matrixkv_db.h"
#include "env/sim_env.h"
#include "env/ssd_model.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace pmblade {
namespace {

class LeveledDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_leveled_test";
    PosixEnv()->RemoveDirRecursively(dbname_);
    options_ = LeveledDbOptions();
    options_.memtable_bytes = 16 << 10;
    options_.levels.level1_target_bytes = 64 << 10;
    options_.levels.level_multiplier = 4;
    options_.levels.target_file_bytes = 32 << 10;
    ASSERT_TRUE(LeveledDb::Open(options_, dbname_, &db_).ok());
  }
  void TearDown() override {
    db_.reset();
    PosixEnv()->RemoveDirRecursively(dbname_);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR";
    return value;
  }

  std::string dbname_;
  LeveledDbOptions options_;
  std::unique_ptr<LeveledDb> db_;
};

TEST_F(LeveledDbTest, PutGetDelete) {
  ASSERT_TRUE(db_->Put("k", "v").ok());
  EXPECT_EQ(Get("k"), "v");
  ASSERT_TRUE(db_->Delete("k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

TEST_F(LeveledDbTest, L0CompactionTriggersAtFour) {
  for (int flush = 0; flush < 4; ++flush) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_->Put("f" + std::to_string(flush) + "k" +
                               std::to_string(i),
                           "v")
                      .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  // Fourth flush triggered L0 -> L1.
  EXPECT_EQ(db_->l0_files(), 0u);
  EXPECT_GT(db_->store().TotalBytes(), 0u);
  EXPECT_EQ(Get("f0k5"), "v");
  EXPECT_EQ(Get("f3k19"), "v");
}

TEST_F(LeveledDbTest, RandomWorkloadAgainstModel) {
  Random rnd(55);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 4000; ++op) {
    std::string key = "key" + std::to_string(rnd.Uniform(400));
    if (rnd.OneIn(12)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op);
      model[key] = value;
      ASSERT_TRUE(db_->Put(key, value).ok());
    }
  }
  for (auto& [k, v] : model) {
    EXPECT_EQ(Get(k), v) << k;
  }
  std::unique_ptr<Iterator> it(db_->NewScanIterator());
  it->SeekToFirst();
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid()) << "missing " << k;
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(LeveledDbTest, CascadeCreatesMultipleLevels) {
  Random rnd(66);
  std::string value(256, 'x');
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        db_->Put("key" + std::to_string(rnd.Uniform(100000)), value).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // With ~1 MB of data, L1 target 64 KiB and multiplier 4, data must have
  // cascaded past L1.
  int populated_levels = 0;
  for (int level = 0; level < db_->store().NumLevels(); ++level) {
    if (db_->store().LevelBytes(level) > 0) ++populated_levels;
  }
  EXPECT_GE(populated_levels, 2);
}

TEST_F(LeveledDbTest, WriteAmplificationExceedsUserBytes) {
  SsdModelOptions mopts;
  mopts.inject_latency = false;
  SsdModel model(mopts);
  SimEnv sim(PosixEnv(), &model);
  LeveledDbOptions opts = options_;
  opts.env = &sim;
  std::string dbname2 = ::testing::TempDir() + "pmblade_leveled_wa";
  PosixEnv()->RemoveDirRecursively(dbname2);
  std::unique_ptr<LeveledDb> db;
  ASSERT_TRUE(LeveledDb::Open(opts, dbname2, &db).ok());

  Random rnd(1);
  std::string value(128, 'y');
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(rnd.Uniform(500)), value).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  obs::MetricSample user_bytes;
  ASSERT_TRUE(
      db->metrics_registry()->Read("pmblade.write.user_bytes", &user_bytes));
  const uint64_t user = static_cast<uint64_t>(user_bytes.value);
  uint64_t device = model.bytes_written();
  EXPECT_GT(device, user);  // WAL + flush + multi-level rewrites
  db.reset();
  PosixEnv()->RemoveDirRecursively(dbname2);
}

class MatrixKvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_matrixkv_test";
    PosixEnv()->RemoveDirRecursively(dbname_);
    options_ = MatrixKvOptions();
    options_.memtable_bytes = 16 << 10;
    options_.pm_budget_bytes = 128 << 10;  // small budget: force columns
    options_.pm_pool_capacity = 32 << 20;
    options_.pm_latency.inject_latency = false;
    options_.levels.level1_target_bytes = 64 << 10;
    options_.levels.level_multiplier = 4;
    options_.levels.target_file_bytes = 32 << 10;
    ASSERT_TRUE(MatrixKvDb::Open(options_, dbname_, &db_).ok());
  }
  void TearDown() override {
    db_.reset();
    PosixEnv()->RemoveDirRecursively(dbname_);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR";
    return value;
  }

  std::string dbname_;
  MatrixKvOptions options_;
  std::unique_ptr<MatrixKvDb> db_;
};

TEST_F(MatrixKvTest, PutGetDelete) {
  ASSERT_TRUE(db_->Put("k", "v").ok());
  EXPECT_EQ(Get("k"), "v");
  ASSERT_TRUE(db_->Delete("k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

TEST_F(MatrixKvTest, RowsAccumulateInPm) {
  for (int flush = 0; flush < 3; ++flush) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db_->Put("f" + std::to_string(flush) + "-" + std::to_string(i), "v")
              .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  EXPECT_EQ(db_->matrix_rows(), 3u);
  obs::MetricSample pm_used;
  ASSERT_TRUE(db_->metrics_registry()->Read("pmblade.pm.used_bytes", &pm_used));
  EXPECT_GT(pm_used.value, 0.0);
  EXPECT_EQ(Get("f1-5"), "v");
}

TEST_F(MatrixKvTest, ColumnCompactionBoundsPmUsage) {
  std::string value(512, 'z');
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // The matrix never exceeds the budget (after flush-time enforcement).
  EXPECT_LE(db_->matrix_bytes(), options_.pm_budget_bytes);
  // Data pushed down is still readable.
  EXPECT_EQ(Get("key0"), value);
  EXPECT_EQ(Get("key1999"), value);
}

TEST_F(MatrixKvTest, RandomWorkloadAgainstModel) {
  Random rnd(77);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 4000; ++op) {
    std::string key = "key" + std::to_string(rnd.Uniform(300));
    if (rnd.OneIn(15)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op);
      model[key] = value;
      ASSERT_TRUE(db_->Put(key, value).ok());
    }
  }
  for (auto& [k, v] : model) {
    EXPECT_EQ(Get(k), v) << k;
  }
  std::unique_ptr<Iterator> it(db_->NewScanIterator());
  it->SeekToFirst();
  size_t count = 0;
  for (; it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, model.size());
}

TEST_F(MatrixKvTest, CompactAllEmptiesMatrix) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(db_->matrix_rows(), 0u);
  EXPECT_EQ(Get("key50"), "v");
}

}  // namespace
}  // namespace pmblade
