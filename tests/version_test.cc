// Tests for the version helpers (run iterator, run point lookup) and Options
// sanitization.

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
  options.major.concurrency = 0;
  options.major.worker_threads = -3;
  options.major.max_io_q = 0;
  ASSERT_TRUE(options.Sanitize().ok());
  EXPECT_GE(options.major.concurrency, 1);
  EXPECT_GE(options.major.worker_threads, 1);
  EXPECT_GE(options.major.max_io_q, 1);
}

}  // namespace
}  // namespace pmblade
