// Tests for the version helpers (run iterator, run point lookup, a table
// set's read order and range iterator) and Options sanitization.

#include <gtest/gtest.h>

#include "core/options.h"
#include "core/version.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table_builder.h"

namespace pmblade {
namespace {

class RunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_run_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions popts;
    popts.capacity = 32 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, popts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  /// Builds one table with keys [lo, hi), all at `seq`.
  L0TableRef Build(int lo, int hi, SequenceNumber seq = 10) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (int i = lo; i < hi; ++i) {
      char key[24];
      snprintf(key, sizeof(key), "key%05d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, seq, kTypeValue);
      builder.Add(ikey, "v" + std::to_string(i));
    }
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
  InternalKeyComparator icmp_{BytewiseComparator()};
};

TEST_F(RunTest, RunIteratorConcatenatesTables) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200),
                                 Build(200, 300)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 300);
  EXPECT_TRUE(it->status().ok());
}

TEST_F(RunTest, RunIteratorSeekBinarySearchesBoundaries) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200),
                                 Build(200, 300)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  std::string seek;
  AppendInternalKey(&seek, "key00150", kMaxSequenceNumber,
                    kValueTypeForSeek);
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "key00150");
  // Before everything / after everything.
  seek.clear();
  AppendInternalKey(&seek, "a", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "key00000");
  seek.clear();
  AppendInternalKey(&seek, "z", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(seek);
  EXPECT_FALSE(it->Valid());
}

TEST_F(RunTest, RunIteratorBackwardAcrossTables) {
  std::vector<L0TableRef> run = {Build(0, 5), Build(5, 10)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  it->SeekToLast();
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE(it->Valid()) << i;
    char key[24];
    snprintf(key, sizeof(key), "key%05d", i);
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), key);
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(RunTest, RunGetFindsCorrectTable) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200)};
  LookupKey lkey("key00150", kMaxSequenceNumber);
  std::string value;
  bool found = false;
  Status result;
  ASSERT_TRUE(RunGet(run, icmp_, lkey, &value, &found, &result).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(value, "v150");
  // Key between tables' ranges but absent.
  LookupKey absent("key00099x", kMaxSequenceNumber);
  found = true;
  ASSERT_TRUE(RunGet(run, icmp_, absent, &value, &found, &result).ok());
  EXPECT_FALSE(found);
  // Empty run.
  ASSERT_TRUE(RunGet({}, icmp_, lkey, &value, &found, &result).ok());
  EXPECT_FALSE(found);
}

class TableSetTest : public RunTest {
 protected:
  /// Builds one table holding version `seq` of `key`: a value, or a
  /// tombstone when `value` is null.
  L0TableRef BuildVersion(const std::string& key, SequenceNumber seq,
                          const char* value) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    std::string ikey;
    AppendInternalKey(&ikey, key, seq,
                      value != nullptr ? kTypeValue : kTypeDeletion);
    builder.Add(ikey, value != nullptr ? value : "");
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  /// TableSet::Get of `key` at `snapshot`: the value ("<deleted>" for a
  /// tombstone, "" when absent) and the tier that answered.
  std::pair<std::string, ReadSource> Lookup(const TableSet& set,
                                            const std::string& key,
                                            SequenceNumber snapshot) {
    std::string value;
    Status result;
    ReadSource source = ReadSource::kMemtable;
    ReadProbeStats probe;
    EXPECT_TRUE(set.Get(icmp_, LookupKey(key, snapshot), nullptr, nullptr,
                        &value, &result, &source, &probe)
                    .ok());
    if (source != ReadSource::kNotFound) {
      EXPECT_GE(probe.tables_probed, 1u);
      if (result.IsNotFound()) value = "<deleted>";
    } else {
      value.clear();
    }
    return {value, source};
  }
};

TEST_F(TableSetTest, NewerUnsortedVersionShadowsSortedAndSsdRuns) {
  TableSet set;
  set.unsorted.push_back(BuildVersion("k", 30, "unsorted"));
  set.sorted_run.push_back(BuildVersion("k", 20, "sorted"));
  set.ssd_runs.push_back({1, {BuildVersion("k", 10, "ssd")}});
  using Hit = std::pair<std::string, ReadSource>;
  EXPECT_EQ(Lookup(set, "k", kMaxSequenceNumber),
            Hit("unsorted", ReadSource::kPmLevel0));
  // Older snapshots fall through to the tier holding their version.
  EXPECT_EQ(Lookup(set, "k", 25), Hit("sorted", ReadSource::kPmLevel0));
  EXPECT_EQ(Lookup(set, "k", 15), Hit("ssd", ReadSource::kSsdLevel1));
  EXPECT_EQ(Lookup(set, "k", 5), Hit("", ReadSource::kNotFound));
  EXPECT_EQ(Lookup(set, "absent", kMaxSequenceNumber),
            Hit("", ReadSource::kNotFound));
}

TEST_F(TableSetTest, TombstoneInSortedRunHidesSsdValue) {
  TableSet set;
  set.sorted_run.push_back(BuildVersion("k", 20, nullptr));
  // Two SSD runs, newest first: the newer run answers for "n".
  set.ssd_runs.push_back({1, {BuildVersion("n", 15, "newer")}});
  set.ssd_runs.push_back(
      {2, {BuildVersion("k", 10, "hidden"), BuildVersion("n", 5, "older")}});
  using Hit = std::pair<std::string, ReadSource>;
  EXPECT_EQ(Lookup(set, "k", kMaxSequenceNumber),
            Hit("<deleted>", ReadSource::kPmLevel0));
  EXPECT_EQ(Lookup(set, "k", 15), Hit("hidden", ReadSource::kSsdLevel1));
  EXPECT_EQ(Lookup(set, "n", kMaxSequenceNumber),
            Hit("newer", ReadSource::kSsdLevel1));
  EXPECT_EQ(Lookup(set, "n", 10), Hit("older", ReadSource::kSsdLevel1));
}

TEST_F(TableSetTest, IteratorCoversLevel0AndRequestedRuns) {
  TableSet set;
  set.unsorted.push_back(Build(0, 10));
  for (int run = 1; run <= 4; ++run) {
    set.ssd_runs.push_back(
        {static_cast<uint32_t>(run), {Build(run * 100, run * 100 + 10)}});
  }
  auto keys = [](Iterator* raw) {
    std::unique_ptr<Iterator> it(raw);
    std::vector<std::string> out;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      out.push_back(ExtractUserKey(it->key()).ToString());
    }
    EXPECT_TRUE(it->status().ok());
    return out;
  };
  // Level-0 excluded, runs [1, 3): exactly the second and third runs.
  std::vector<std::string> expected;
  for (int base : {200, 300}) {
    for (int i = base; i < base + 10; ++i) {
      char key[24];
      snprintf(key, sizeof(key), "key%05d", i);
      expected.push_back(key);
    }
  }
  EXPECT_EQ(keys(set.NewIterator(&icmp_, false, 1, 3)), expected);
  // The default covers level-0 and the whole stack; an end past the stack
  // is clipped.
  EXPECT_EQ(keys(set.NewIterator(&icmp_)).size(), 50u);
  EXPECT_EQ(keys(set.NewIterator(&icmp_, true, 3, 99)).size(), 20u);
  EXPECT_TRUE(keys(set.NewIterator(&icmp_, false, 2, 2)).empty());
}

TEST(OptionsTest, SanitizeFillsDefaults) {
  Options options;
  ASSERT_TRUE(options.Sanitize().ok());
  EXPECT_NE(options.env, nullptr);
  EXPECT_NE(options.raw_env, nullptr);
  EXPECT_NE(options.logger, nullptr);
  EXPECT_NE(options.clock, nullptr);
}

TEST(OptionsTest, SanitizeRejectsBadValues) {
  Options options;
  options.memtable_bytes = 16;
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.pm_pool_capacity = 1024;
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.partition_boundaries = {"b", "b"};
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.partition_boundaries = {"c", "a"};
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());
}

TEST(OptionsTest, SanitizeClampsCompactionKnobs) {
  Options options;
  options.major.worker_threads = -3;
  options.major.max_io_q = 0;
  ASSERT_TRUE(options.Sanitize().ok());
  EXPECT_GE(options.major.worker_threads, 1);
  EXPECT_GE(options.major.max_io_q, 1);
}

}  // namespace
}  // namespace pmblade
