// Differential correctness for the parallel compaction pipeline: the same
// randomized workload is driven through a workers=1 engine (the historical
// single-worker scheduler, no subcompactions) and a workers=4 engine (pool
// scheduler + key-range subcompactions), and after every compaction wave —
// and after a full reopen — the two must agree byte-for-byte: identical
// iterator views and identical per-key Get results, both also checked
// against an in-memory shadow oracle. Plus a deterministic unit test that
// a single victim really is split into multiple slices and stitched back
// into one sorted level-1 run.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/db.h"

namespace pmblade {
namespace {

uint64_t Prop(DB* db, const std::string& name) {
  uint64_t value = 0;
  EXPECT_TRUE(db->GetProperty(name, &value)) << name;
  return value;
}

Options MakeOptions(int workers) {
  Options options;
  options.memtable_bytes = 8 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.enable_cost_model = false;  // deterministic victim selection
  options.l0_table_trigger = 3;
  options.internal_table_target_bytes = 8 << 10;  // multi-table sorted runs
  options.partition_boundaries = {"f", "m", "t"};  // 4 partitions
  options.compaction_workers = workers;
  options.max_subcompactions = workers;
  return options;
}

// Deterministic key spread across the partition boundaries.
std::string KeyForId(int id) {
  char prefix = static_cast<char>('a' + (id * 7) % 26);
  char buf[16];
  snprintf(buf, sizeof(buf), "%c%05d", prefix, id);
  return buf;
}

std::vector<std::pair<std::string, std::string>> Dump(DB* db) {
  std::vector<std::pair<std::string, std::string>> out;
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace_back(it->key().ToString(), it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok());
  return out;
}

// The differential oracle: two live engines plus the shadow map that every
// applied operation also updates.
class CompactionParallelTest : public ::testing::Test {
 protected:
  static constexpr int kNumKeys = 1000;

  void SetUp() override {
    base_ = ::testing::TempDir() + "pmblade_compaction_parallel_";
    for (int w : {1, 4}) {
      DestroyDB(MakeOptions(w), Dir(w));
    }
    Open(1);
    Open(4);
  }

  void TearDown() override {
    db1_.reset();
    db4_.reset();
    DestroyDB(MakeOptions(1), Dir(1));
    DestroyDB(MakeOptions(4), Dir(4));
  }

  std::string Dir(int workers) {
    return base_ + "w" + std::to_string(workers);
  }

  void Open(int workers) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(workers), Dir(workers), &db).ok());
    (workers == 1 ? db1_ : db4_) = std::move(db);
  }

  void ApplyPut(const std::string& key, const std::string& value) {
    ASSERT_TRUE(db1_->Put(WriteOptions(), key, value).ok());
    ASSERT_TRUE(db4_->Put(WriteOptions(), key, value).ok());
    shadow_[key] = value;
  }

  void ApplyDelete(const std::string& key) {
    ASSERT_TRUE(db1_->Delete(WriteOptions(), key).ok());
    ASSERT_TRUE(db4_->Delete(WriteOptions(), key).ok());
    shadow_.erase(key);
  }

  // Full equivalence: iterator views byte-identical to each other AND to
  // the shadow, and per-key Get agreement (presence and bytes) over the
  // whole keyspace.
  void CheckEquivalence(const std::string& when) {
    std::vector<std::pair<std::string, std::string>> d1 = Dump(db1_.get());
    std::vector<std::pair<std::string, std::string>> d4 = Dump(db4_.get());
    std::vector<std::pair<std::string, std::string>> want(shadow_.begin(),
                                                          shadow_.end());
    ASSERT_EQ(d1.size(), want.size()) << when;
    ASSERT_EQ(d4.size(), want.size()) << when;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(d1[i], want[i]) << when << ": workers=1 diverges at " << i;
      ASSERT_EQ(d4[i], want[i]) << when << ": workers=4 diverges at " << i;
    }
    for (int id = 0; id < kNumKeys; ++id) {
      std::string key = KeyForId(id);
      std::string v1, v4;
      Status s1 = db1_->Get(ReadOptions(), key, &v1);
      Status s4 = db4_->Get(ReadOptions(), key, &v4);
      auto it = shadow_.find(key);
      if (it != shadow_.end()) {
        ASSERT_TRUE(s1.ok()) << when << " " << key << ": " << s1.ToString();
        ASSERT_TRUE(s4.ok()) << when << " " << key << ": " << s4.ToString();
        ASSERT_EQ(v1, it->second) << when << " " << key;
        ASSERT_EQ(v4, it->second) << when << " " << key;
      } else {
        ASSERT_TRUE(s1.IsNotFound()) << when << " " << key;
        ASSERT_TRUE(s4.IsNotFound()) << when << " " << key;
      }
    }
  }

  std::string base_;
  std::unique_ptr<DB> db1_;
  std::unique_ptr<DB> db4_;
  std::map<std::string, std::string> shadow_;
};

TEST_F(CompactionParallelTest, DifferentialOracleAcrossCompactionWaves) {
  std::mt19937 rng(20260808);  // fixed seed: the sweep is reproducible
  std::uniform_int_distribution<int> key_dist(0, kNumKeys - 1);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> len_dist(20, 300);

  const int kWaves = 5;
  const int kOpsPerWave = 400;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int op = 0; op < kOpsPerWave; ++op) {
      int id = key_dist(rng);
      std::string key = KeyForId(id);
      if (op_dist(rng) < 15) {
        ApplyDelete(key);
      } else {
        // Value depends on (key, wave, op): overwrites change bytes, so a
        // dedup bug that keeps the wrong version changes the dump.
        std::string value = key + "#" + std::to_string(wave) + "." +
                            std::to_string(op) + "/" +
                            std::string(len_dist(rng), 'v');
        ApplyPut(key, value);
      }
    }

    // Compaction wave: drain the memtables, force level-0 sorting, then a
    // full major compaction through the (possibly parallel) pipeline.
    ASSERT_TRUE(db1_->FlushMemTable().ok());
    ASSERT_TRUE(db4_->FlushMemTable().ok());
    if (wave % 2 == 0) {
      ASSERT_TRUE(db1_->CompactLevel0().ok());
      ASSERT_TRUE(db4_->CompactLevel0().ok());
    }
    ASSERT_TRUE(db1_->CompactToLevel1(false).ok());
    ASSERT_TRUE(db4_->CompactToLevel1(false).ok());

    CheckEquivalence("after wave " + std::to_string(wave));
  }

  // Both engines must also agree after recovery.
  db1_.reset();
  db4_.reset();
  Open(1);
  Open(4);
  CheckEquivalence("after reopen");
}

// Deterministic split/stitch check: one victim whose sorted run spans
// several tables is compacted with max_subcompactions=4; the subcompaction
// counter must show the victim was really sliced (and the stitched level-1
// run must read back complete and sorted).
TEST(CompactionSubcompactionTest, SingleVictimIsSplitAndStitched) {
  Options options;
  options.memtable_bytes = 8 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.enable_cost_model = false;
  options.l0_table_trigger = 1000;  // no background majors: only manual ones
  options.internal_table_target_bytes = 8 << 10;
  options.compaction_workers = 2;
  options.max_subcompactions = 4;
  std::string dbname =
      ::testing::TempDir() + "pmblade_subcompaction_split_test";
  DestroyDB(options, dbname);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  auto fill = [&](int begin, int end) {
    const std::string value(300, 'v');
    for (int i = begin; i < end; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "k%05d", i);
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
  };
  auto check_scan = [&](size_t expect) {
    std::vector<std::pair<std::string, std::string>> dump = Dump(db.get());
    ASSERT_EQ(dump.size(), expect);
    for (size_t i = 1; i < dump.size(); ++i) {
      ASSERT_LT(dump[i - 1].first, dump[i].first);
    }
  };

  // Round 1: the split boundaries come from the multi-table SORTED run
  // (level-1 is still empty).
  fill(0, 200);
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->CompactLevel0().ok());
  uint64_t base = Prop(db.get(), "pmblade.compaction.subcompactions");
  ASSERT_TRUE(db->CompactToLevel1(false).ok());
  uint64_t slices = Prop(db.get(), "pmblade.compaction.subcompactions") - base;
  EXPECT_GE(slices, 2u) << "single victim was not sliced";
  EXPECT_LE(slices, 4u) << "more slices than max_subcompactions";
  check_scan(200);

  // Round 2: level-1 now spans several stitched tables, so the next major
  // splits at LEVEL-1 table boundaries.
  fill(200, 400);
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->CompactLevel0().ok());
  base = Prop(db.get(), "pmblade.compaction.subcompactions");
  ASSERT_TRUE(db->CompactToLevel1(false).ok());
  slices = Prop(db.get(), "pmblade.compaction.subcompactions") - base;
  EXPECT_GE(slices, 2u);
  EXPECT_LE(slices, 4u);
  check_scan(400);

  // Stitched state survives recovery.
  db.reset();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  check_scan(400);
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "k00000", &got).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "k00399", &got).ok());

  db.reset();
  DestroyDB(options, dbname);
}

}  // namespace
}  // namespace pmblade
