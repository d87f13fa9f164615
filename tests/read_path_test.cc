// Read-path acceleration tests: bloom filters must never produce a false
// negative across flush, internal compaction, major compaction and reopen
// (for every level-0 layout), absent-key probes must register bloom
// negatives, and the block cache's charge accounting must match its
// capacity through inserts, evictions and arbiter-style SetCapacity
// shrinks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "sstable/block.h"
#include "sstable/block_cache.h"
#include "sstable/format.h"
#include "util/coding.h"

namespace pmblade {
namespace {

class ReadPathTest : public ::testing::TestWithParam<L0Layout> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_read_path_test";
    Options defaults;
    DestroyDB(defaults, dbname_);
    options_ = Options();
    options_.l0_layout = GetParam();
    options_.memtable_bytes = 64 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.partition_boundaries = {"key3", "key6"};
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

  static std::string Key(int i) { return "key" + std::to_string(i); }
  static std::string Value(int i) { return "value" + std::to_string(i); }

  void LoadKeys(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }

  /// Every loaded key must be found with its latest value — a bloom false
  /// negative would surface here as NOT_FOUND.
  void ExpectAllPresent(int n) {
    for (int i = 0; i < n; ++i) {
      std::string value;
      Status s = db_->Get(ReadOptions(), Key(i), &value);
      ASSERT_TRUE(s.ok()) << Key(i) << ": " << s.ToString();
      EXPECT_EQ(value, Value(i));
    }
  }

  uint64_t Property(const std::string& name) {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(ReadPathTest, NoFalseNegativesAcrossLifecycle) {
  Open();
  const int n = 500;
  LoadKeys(n);

  // In the memtable.
  ExpectAllPresent(n);
  // In unsorted level-0 tables (flush builds the per-table filters).
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ExpectAllPresent(n);
  // In the sorted run (internal compaction rebuilds filters).
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ExpectAllPresent(n);
  // On SSD level-1 (SSTable filter blocks).
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  ExpectAllPresent(n);
  // After reopen (PM layouts rebuild their DRAM filters by table scan).
  Open();
  ExpectAllPresent(n);

  // Overwrites and deletes must stay visible through the filters too.
  ASSERT_TRUE(db_->Put(WriteOptions(), Key(1), "rewritten").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), Key(2)).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(1), &value).ok());
  EXPECT_EQ(value, "rewritten");
  EXPECT_TRUE(db_->Get(ReadOptions(), Key(2), &value).IsNotFound());
}

TEST_P(ReadPathTest, AbsentKeysRegisterBloomNegatives) {
  Open();
  const int n = 500;
  LoadKeys(n);
  ASSERT_TRUE(db_->FlushMemTable().ok());

  uint64_t checks_before = Property("pmblade.bloom.checks");
  uint64_t negatives_before = Property("pmblade.bloom.negatives");
  // Absent keys INTERIOR to the loaded key range ("keyN0z" sorts between
  // keyN0 and keyN1), so they pass the tables' min/max range check and the
  // rejection must come from the bloom filter itself.
  for (int i = 0; i < 200; ++i) {
    std::string value;
    EXPECT_TRUE(
        db_->Get(ReadOptions(), "key" + std::to_string(i) + "0z", &value)
            .IsNotFound());
  }
  EXPECT_GT(Property("pmblade.bloom.checks"), checks_before);
  // With 10 bits/key the false-positive rate is ~1%; 200 absent probes
  // must produce a healthy majority of bloom rejections.
  EXPECT_GE(Property("pmblade.bloom.negatives"), negatives_before + 150);
}

TEST_P(ReadPathTest, FiltersDisabledStillCorrect) {
  options_.bloom_bits_per_key = 0;  // the no-filter baseline
  Open();
  const int n = 200;
  LoadKeys(n);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ExpectAllPresent(n);
  EXPECT_EQ(Property("pmblade.bloom.checks"), 0u);
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "absent", &value).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Layouts, ReadPathTest,
                         ::testing::Values(L0Layout::kPmTable,
                                           L0Layout::kArrayTable,
                                           L0Layout::kSnappyTable,
                                           L0Layout::kSstable),
                         [](const ::testing::TestParamInfo<L0Layout>& info) {
                           switch (info.param) {
                             case L0Layout::kPmTable:
                               return "PmTable";
                             case L0Layout::kArrayTable:
                               return "ArrayTable";
                             case L0Layout::kSnappyTable:
                               return "SnappyTable";
                             case L0Layout::kSnappyGroupTable:
                               return "SnappyGroupTable";
                             case L0Layout::kSstable:
                               return "Sstable";
                           }
                           return "Unknown";
                         });

// -- Block cache charge accounting -----------------------------------------

/// A minimal well-formed block: no entries, one restart slot, so Block's
/// parser accepts it while the test controls the charge exactly.
std::shared_ptr<Block> MakeBlock(size_t payload) {
  std::string raw(payload, 'x');
  PutFixed32(&raw, 0);  // restart[0]
  PutFixed32(&raw, 1);  // num_restarts
  char* heap = new char[raw.size()];
  memcpy(heap, raw.data(), raw.size());
  BlockContents contents;
  contents.data = Slice(heap, raw.size());
  contents.cachable = true;
  contents.heap_allocated = true;
  return std::make_shared<Block>(contents);
}

TEST(BlockCacheTest, ChargeNeverExceedsCapacityAfterEviction) {
  BlockCache cache(64 << 10);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(1, i * 4096, MakeBlock(4000), 4096);
  }
  EXPECT_LE(cache.TotalCharge(), cache.capacity());
  EXPECT_GT(cache.TotalCharge(), 0u);
}

TEST(BlockCacheTest, LookupTracksHitsAndMisses) {
  BlockCache cache(64 << 10);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(1, 0, MakeBlock(100), 128);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, SetCapacityShrinkEvictsToFit) {
  BlockCache cache(256 << 10);
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(1, i * 4096, MakeBlock(4000), 4096);
  }
  uint64_t charge_before = cache.TotalCharge();
  EXPECT_GT(charge_before, static_cast<uint64_t>(16 << 10));

  cache.SetCapacity(16 << 10);
  EXPECT_EQ(cache.capacity(), static_cast<size_t>(16 << 10));
  EXPECT_LE(cache.TotalCharge(), static_cast<size_t>(16 << 10));

  // Growing back re-admits new blocks without disturbing the survivors.
  cache.SetCapacity(256 << 10);
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(2, i * 4096, MakeBlock(4000), 4096);
  }
  EXPECT_LE(cache.TotalCharge(), cache.capacity());
}

TEST(BlockCacheTest, EvictTableDropsOnlyThatTable) {
  BlockCache cache(256 << 10);
  cache.Insert(1, 0, MakeBlock(100), 128);
  cache.Insert(2, 0, MakeBlock(100), 128);
  cache.EvictTable(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
}

}  // namespace
}  // namespace pmblade
