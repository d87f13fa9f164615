// Tests for the SSTable stack: block builder/reader, filter block, table
// builder/reader, block cache.

#include <gtest/gtest.h>

#include <map>

#include "env/env.h"
#include "memtable/internal_key.h"
#include "sstable/block.h"
#include "sstable/block_builder.h"
#include "sstable/block_cache.h"
#include "sstable/filter_block.h"
#include "sstable/format.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/bloom.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace pmblade {
namespace {

BlockContents Contents(const Slice& data) {
  // Copy into heap so Block takes ownership (mirrors the read path).
  char* buf = new char[data.size()];
  memcpy(buf, data.data(), data.size());
  BlockContents contents;
  contents.data = Slice(buf, data.size());
  contents.heap_allocated = true;
  contents.cachable = true;
  return contents;
}

TEST(BlockTest, BuildAndScan) {
  BlockBuilder builder(4);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    std::string value = "value" + std::to_string(i);
    model[key] = value;
    builder.Add(key, value);
  }
  Block block(Contents(builder.Finish()));
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, SeekFindsFirstGreaterOrEqual) {
  BlockBuilder builder(16);
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    builder.Add(key, "v");
  }
  Block block(Contents(builder.Finish()));
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->Seek("key0031");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "key0032");
  it->Seek("key0000");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "key0000");
  it->Seek("key9999");
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, PrevWalksBackward) {
  BlockBuilder builder(4);
  for (int i = 0; i < 20; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    builder.Add(key, "v");
  }
  Block block(Contents(builder.Finish()));
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToLast();
  for (int i = 19; i >= 0; --i) {
    ASSERT_TRUE(it->Valid());
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    EXPECT_EQ(it->key().ToString(), key);
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, PrefixCompressionSavesSpace) {
  // Keys sharing long prefixes should compress well vs raw concatenation.
  BlockBuilder builder(16);
  size_t raw = 0;
  for (int i = 0; i < 1000; ++i) {
    char key[64];
    snprintf(key, sizeof(key), "table_orders|user_%08d|order", i);
    raw += strlen(key) + 1;
    builder.Add(key, "v");
  }
  Slice finished = builder.Finish();
  EXPECT_LT(finished.size(), raw * 2 / 3);
}

TEST(FilterBlockTest, SingleBlockFilter) {
  BloomFilterPolicy policy(10);
  FilterBlockBuilder builder(&policy);
  builder.StartBlock(0);
  builder.AddKey("foo");
  builder.AddKey("bar");
  Slice contents = builder.Finish();
  FilterBlockReader reader(&policy, contents);
  EXPECT_TRUE(reader.KeyMayMatch(0, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(0, "bar"));
  EXPECT_FALSE(reader.KeyMayMatch(0, "definitely-not-present-xyz"));
}

TEST(FilterBlockTest, MultipleBlockRanges) {
  BloomFilterPolicy policy(10);
  FilterBlockBuilder builder(&policy);
  builder.StartBlock(0);
  builder.AddKey("block0-key");
  builder.StartBlock(5000);
  builder.AddKey("block1-key");
  Slice contents = builder.Finish();
  FilterBlockReader reader(&policy, contents);
  EXPECT_TRUE(reader.KeyMayMatch(0, "block0-key"));
  EXPECT_TRUE(reader.KeyMayMatch(5000, "block1-key"));
  EXPECT_FALSE(reader.KeyMayMatch(5000, "block0-key"));
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = PosixEnv();
    fname_ = ::testing::TempDir() + "pmblade_table_test.sst";
    env_->RemoveFile(fname_);
    icmp_.reset(new InternalKeyComparator(BytewiseComparator()));
    policy_.reset(new BloomFilterPolicy(10));
  }
  void TearDown() override { env_->RemoveFile(fname_); }

  // Builds a table with `n` entries "key%06d" -> "value-i" and opens it.
  void BuildAndOpen(int n, BlockCache* cache = nullptr) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname_, &file).ok());
    TableBuilderOptions opts;
    opts.comparator = icmp_.get();
    opts.filter_policy = policy_.get();
    opts.block_size = 1024;
    TableBuilder builder(opts, file.get());
    for (int i = 0; i < n; ++i) {
      std::string ikey;
      AppendInternalKey(&ikey, KeyOf(i), 10, kTypeValue);
      builder.Add(ikey, "value-" + std::to_string(i));
    }
    ASSERT_TRUE(builder.Finish().ok()) << builder.status().ToString();
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());

    uint64_t size = 0;
    ASSERT_TRUE(env_->GetFileSize(fname_, &size).ok());
    std::unique_ptr<RandomAccessFile> rfile;
    ASSERT_TRUE(env_->NewRandomAccessFile(fname_, &rfile).ok());
    TableReaderOptions ropts;
    ropts.comparator = icmp_.get();
    ropts.filter_policy = policy_.get();
    ropts.block_cache = cache;
    ropts.file_number = 1;
    ASSERT_TRUE(
        TableReader::Open(ropts, std::move(rfile), size, &table_).ok());
  }

  static std::string KeyOf(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  Env* env_;
  std::string fname_;
  std::unique_ptr<InternalKeyComparator> icmp_;
  std::unique_ptr<BloomFilterPolicy> policy_;
  std::unique_ptr<TableReader> table_;
};

TEST_F(TableTest, FullScanMatchesInput) {
  BuildAndOpen(2000);
  std::unique_ptr<Iterator> it(table_->NewIterator());
  it->SeekToFirst();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(it->Valid()) << i;
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), KeyOf(i));
    EXPECT_EQ(it->value().ToString(), "value-" + std::to_string(i));
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, SeekWorks) {
  BuildAndOpen(1000);
  std::unique_ptr<Iterator> it(table_->NewIterator());
  LookupKey lk(KeyOf(457), kMaxSequenceNumber);
  it->Seek(lk.internal_key());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), KeyOf(457));
}

TEST_F(TableTest, InternalGetFindsKeys) {
  BuildAndOpen(500);
  struct Result {
    bool called = false;
    std::string key, value;
  } result;
  LookupKey lk(KeyOf(123), kMaxSequenceNumber);
  ASSERT_TRUE(table_
                  ->InternalGet(lk.internal_key(), &result,
                                [](void* arg, const Slice& k,
                                   const Slice& v) {
                                  auto* r = static_cast<Result*>(arg);
                                  r->called = true;
                                  r->key = k.ToString();
                                  r->value = v.ToString();
                                })
                  .ok());
  ASSERT_TRUE(result.called);
  EXPECT_EQ(ExtractUserKey(result.key).ToString(), KeyOf(123));
  EXPECT_EQ(result.value, "value-123");
}

TEST_F(TableTest, BloomFilterSkipsAbsentKeys) {
  BuildAndOpen(500);
  // An absent key between existing ones: the filter should usually keep the
  // callback from firing (false positives are permitted but rare).
  int called = 0;
  for (int probe = 0; probe < 100; ++probe) {
    std::string ikey;
    AppendInternalKey(&ikey, "absent" + std::to_string(probe), 10,
                      kTypeValue);
    ASSERT_TRUE(table_
                    ->InternalGet(ikey, &called,
                                  [](void* arg, const Slice& k, const Slice&) {
                                    // Only count callbacks whose user key is
                                    // one of ours (a real hit would be a bug;
                                    // a neighbor key callback means the
                                    // filter passed).
                                    (void)k;
                                    ++*static_cast<int*>(arg);
                                  })
                    .ok());
  }
  EXPECT_LT(called, 10);
}

TEST_F(TableTest, BlockCacheServesRepeatReads) {
  BlockCache cache(1 << 20);
  BuildAndOpen(2000, &cache);
  for (int round = 0; round < 3; ++round) {
    std::unique_ptr<Iterator> it(table_->NewIterator());
    it->SeekToFirst();
    int count = 0;
    while (it->Valid()) {
      ++count;
      it->Next();
    }
    EXPECT_EQ(count, 2000);
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(TableTest, BlockTypeOtherThanNoneIsCorruption) {
  // A block whose trailer names any type but kNoCompression reads as
  // Corruption, even when its checksum is intact.
  for (uint8_t type : {uint8_t{kNoCompression}, uint8_t{1}, uint8_t{0x7f}}) {
    std::string block = "block contents";
    block.push_back(static_cast<char>(type));
    PutFixed32(&block, crc32c::Mask(crc32c::Value(block.data(),
                                                  block.size())));
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname_, &file).ok());
    ASSERT_TRUE(file->Append(block).ok());
    ASSERT_TRUE(file->Close().ok());

    std::unique_ptr<RandomAccessFile> rfile;
    ASSERT_TRUE(env_->NewRandomAccessFile(fname_, &rfile).ok());
    BlockHandle handle;
    handle.set_size(block.size() - kBlockTrailerSize);
    BlockContents contents;
    Status s = ReadBlock(rfile.get(), handle, &contents);
    if (type == kNoCompression) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(contents.data.ToString(), "block contents");
      if (contents.heap_allocated) delete[] contents.data.data();
    } else {
      EXPECT_TRUE(s.IsCorruption()) << int{type};
    }
  }
}

TEST(BlockCacheTest, InsertLookupEvict) {
  BlockCache cache(1000, 1);  // single shard, tiny
  BlockBuilder builder(4);
  builder.Add("a", "value");
  std::string data = builder.Finish().ToString();
  auto make_block = [&]() {
    char* buf = new char[data.size()];
    memcpy(buf, data.data(), data.size());
    BlockContents contents;
    contents.data = Slice(buf, data.size());
    contents.heap_allocated = true;
    return std::make_shared<Block>(contents);
  };
  cache.Insert(1, 0, make_block(), 600);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  // Inserting another large entry evicts the first (capacity 1000).
  cache.Insert(1, 100, make_block(), 600);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(1, 100), nullptr);
}

TEST(BlockCacheTest, EvictTableDropsAllItsBlocks) {
  BlockCache cache(1 << 20, 2);
  BlockBuilder builder(4);
  builder.Add("k", "v");
  Slice data = builder.Finish();
  for (uint64_t off = 0; off < 10; ++off) {
    char* buf = new char[data.size()];
    memcpy(buf, data.data(), data.size());
    BlockContents contents;
    contents.data = Slice(buf, data.size());
    contents.heap_allocated = true;
    cache.Insert(7, off, std::make_shared<Block>(contents), data.size());
  }
  EXPECT_GT(cache.TotalCharge(), 0u);
  cache.EvictTable(7);
  EXPECT_EQ(cache.TotalCharge(), 0u);
  EXPECT_EQ(cache.Lookup(7, 3), nullptr);
}

}  // namespace
}  // namespace pmblade
