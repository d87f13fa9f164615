// Read-path acceleration tests: bloom filters must never produce a false
// negative across flush, internal compaction, major compaction and reopen
// (for every level-0 layout), a table set a reader holds stays intact and
// readable across those installs, absent-key probes must register bloom
// negatives, and the block cache's charge accounting must match its
// capacity through inserts, evictions and arbiter-style SetCapacity
// shrinks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/version.h"
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

TEST_P(ReadPathTest, HeldTableSetOutlivesInstalls) {
  Open();
  const int n = 300;
  LoadKeys(n);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  const std::shared_ptr<const TableSet> held =
      impl->PartitionTablesForKey(Key(1));
  ASSERT_NE(held, nullptr);
  ASSERT_FALSE(held->unsorted.empty());
  const InternalKeyComparator icmp(BytewiseComparator());
  auto tables = [](const TableSet& set) {
    std::vector<const L0Table*> out;
    for (const auto& t : set.unsorted) out.push_back(t.get());
    for (const auto& t : set.sorted_run) out.push_back(t.get());
    for (const SsdRun& run : set.ssd_runs) {
      for (const auto& t : run.tables) out.push_back(t.get());
    }
    return out;
  };
  auto entries = [&icmp](const TableSet& set) {
    std::unique_ptr<Iterator> it(set.NewIterator(&icmp));
    size_t count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
    EXPECT_TRUE(it->status().ok());
    return count;
  };
  const std::vector<const L0Table*> held_tables = tables(*held);
  const size_t held_entries = entries(*held);
  ASSERT_GT(held_entries, 0u);

  // A reader shares the partitions' sets while a flush, an internal and a
  // major compaction each install a new one.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      for (int i = 0; i < n; i += 7) {
        std::string value;
        if (!db_->Get(ReadOptions(), Key(i), &value).ok()) ++bad_reads;
      }
    }
  });
  for (int i = 0; i < n; i += 2) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);

  // The held set still names the same, still readable tables; the
  // partition's current set is a different one.
  EXPECT_EQ(tables(*held), held_tables);
  EXPECT_EQ(entries(*held), held_entries);
  const std::shared_ptr<const TableSet> now =
      impl->PartitionTablesForKey(Key(1));
  EXPECT_NE(now, held);
  EXPECT_TRUE(now->unsorted.empty());
  EXPECT_TRUE(now->sorted_run.empty());
  EXPECT_FALSE(now->ssd_runs.empty());
  ExpectAllPresent(n);
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

// -- PM table search cost ---------------------------------------------------

class PmTableReadCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_pm_read_cost_test";
    options_.l0_layout = L0Layout::kPmTable;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }
  void Open() {
    std::unique_ptr<DB> db;
    Status s = DB::Open(options_, dbname_, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_ = std::move(db);
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

// A Get that reaches a PM sorted run searches the groups in DRAM: one PM
// access walks the candidate group, and only the 1 key in 16 that opens a
// group pays a full first-key read plus a walk of the group before it. A
// search that reads a full first key at every binary-search step costs
// about 11 accesses per Get here.
TEST_F(PmTableReadCostTest, SortedRunGetsReadAboutOnePmAccess) {
  Open();
  // The perfbench key shape: "k" + 16 hex digits of a scrambled id.
  auto key = [](uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "k%016llx",
             static_cast<unsigned long long>(i * 0x9E3779B97F4A7C15ull));
    return std::string(buf);
  };
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ASSERT_EQ(Property("pmblade.lsm.unsorted_tables"), 0u);
  ASSERT_GT(Property("pmblade.lsm.sorted_tables"), 0u);

  const uint64_t pm_reads_before = Property("pmblade.reads.pm_l0");
  const uint64_t accesses_before = Property("pmblade.pm.read_accesses");
  for (int i = 0; i < n; ++i) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key(i), &value).ok()) << key(i);
  }
  ASSERT_EQ(Property("pmblade.reads.pm_l0") - pm_reads_before,
            static_cast<uint64_t>(n));
  const double per_get =
      static_cast<double>(Property("pmblade.pm.read_accesses") -
                          accesses_before) /
      n;
  EXPECT_GE(per_get, 1.0);
  EXPECT_LE(per_get, 1.2);
}

// pmblade.lsm.l0_dram_bytes: each PM table holds its filter plus one 8-byte
// slot per 16-entry group and its meta range's first internal key.
TEST_F(PmTableReadCostTest, L0DramGaugeCountsSlotsAndFilters) {
  options_.bloom_bits_per_key = 0;  // slots and range keys only
  Open();
  EXPECT_EQ(Property("pmblade.lsm.l0_dram_bytes"), 0u);
  auto load = [this](int base) {
    for (int i = base; i < base + 100; ++i) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), "key" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  };
  // 100 keys: 7 groups of slots plus "key100" + its 8-byte tag.
  const uint64_t table_bytes = 7 * 8 + 6 + 8;
  load(100);
  EXPECT_EQ(Property("pmblade.lsm.l0_dram_bytes"), table_bytes);
  load(200);
  EXPECT_EQ(Property("pmblade.lsm.l0_dram_bytes"), 2 * table_bytes);

  // With filters the gauge adds each table's filter to its slots.
  db_.reset();
  DestroyDB(options_, dbname_);
  options_.bloom_bits_per_key = 10;
  Open();
  load(100);
  EXPECT_GT(Property("pmblade.lsm.l0_dram_bytes"), table_bytes + 100 * 10 / 8);
}

// Opening an engine rebuilds each PM table's DRAM filter from a keys-only
// walk: entry headers and key suffixes, values skipped. With 256-byte
// values open then reads a small share of level-0, where a scan with
// values reads all of it (1.0 PM bytes per level-0 byte). The rebuilt
// filters are the ones the build installed: the same absent keys get the
// same bloom verdicts before and after the reopen.
TEST_F(PmTableReadCostTest, OpenReadsKeysNotValues) {
  Open();
  auto key = [](int i) { return "key" + std::to_string(100000 + i); };
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key(i), std::string(256, 'v')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());
  auto absent_negatives = [&] {
    const uint64_t before = Property("pmblade.bloom.negatives");
    for (int i = 0; i < 2000; ++i) {
      std::string value;  // inside the tables' key range
      EXPECT_TRUE(db_->Get(ReadOptions(), key(i) + "x", &value).IsNotFound());
    }
    return Property("pmblade.bloom.negatives") - before;
  };
  const uint64_t negatives_built = absent_negatives();
  const uint64_t dram_built = Property("pmblade.lsm.l0_dram_bytes");

  db_.reset();
  Open();
  const uint64_t l0_bytes = Property("pmblade.lsm.l0_bytes");
  ASSERT_GT(l0_bytes, uint64_t{n} * 256);
  const double read_per_l0_byte =
      static_cast<double>(Property("pmblade.pm.bytes_read")) / l0_bytes;
  EXPECT_LE(read_per_l0_byte, 0.15);
  EXPECT_EQ(Property("pmblade.lsm.l0_dram_bytes"), dram_built);
  EXPECT_GT(negatives_built, 1900u);
  EXPECT_EQ(absent_negatives(), negatives_built);
  for (int i = 0; i < n; i += 97) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key(i), &value).ok()) << key(i);
  }
}

// A major compaction that replaces SSTables drops their blocks from the
// block cache when it installs the new run, instead of leaving them to age
// out of the LRU.
TEST_F(PmTableReadCostTest, ReplacedSstablesLeaveTheBlockCache) {
  Open();
  const int n = 2000;
  auto key = [](int i) { return "key" + std::to_string(10000 + i); };
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key(i), std::string(200, 'v')).ok());
  }
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  for (int i = 0; i < n; ++i) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key(i), &value).ok());
  }
  const uint64_t cached = Property("pmblade.blockcache.charge");
  ASSERT_GT(cached, uint64_t{n} * 200);

  // Delete all but a few keys: the new level-1 run is small, so what the
  // cache holds after the install is its blocks, not the old run's.
  for (int i = 10; i < n; ++i) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), key(i)).ok());
  }
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  EXPECT_LT(Property("pmblade.blockcache.charge"), cached / 10);
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), key(0), &value).ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), key(n - 1), &value).IsNotFound());
}

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
