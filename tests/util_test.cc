// Unit tests for the util module: Status, Slice, coding, CRC32C, Random,
// Zipfian, Histogram, Arena, Bloom, Comparator, Clock.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "util/arena.h"
#include "util/bloom.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/zipfian.h"

namespace pmblade {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
  EXPECT_EQ(s.message(), "missing key");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::IOError("disk gone");
  Status copy = s;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_TRUE(s.IsIOError());
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIOError());
  EXPECT_EQ(moved.message(), "disk gone");
}

TEST(StatusTest, AllCodesDistinct) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::Busy("").IsBusy());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWithAndDifferenceOffset) {
  Slice s("tableA|row17");
  EXPECT_TRUE(s.starts_with("tableA|"));
  EXPECT_FALSE(s.starts_with("tableB"));
  EXPECT_EQ(s.difference_offset(Slice("tableA|row99")), 10u);
}

TEST(CodingTest, FixedRoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeefu);
  PutFixed64(&s, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(s.data() + 4), 0x0123456789abcdefull);
}

TEST(CodingTest, Varint32RoundTripBoundaries) {
  std::vector<uint32_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1u << 21) - 1, 1u << 21, UINT32_MAX};
  std::string s;
  for (uint32_t v : values) PutVarint32(&s, v);
  Slice in(s);
  for (uint32_t v : values) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint64RoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, (1ull << 35),
                                  (1ull << 56) - 1, UINT64_MAX};
  std::string s;
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string s;
  PutVarint32(&s, UINT32_MAX);
  for (size_t keep = 0; keep + 1 < s.size(); ++keep) {
    Slice in(s.data(), keep);
    uint32_t v;
    EXPECT_FALSE(GetVarint32(&in, &v)) << "kept " << keep;
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 40, UINT64_MAX}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string s;
  PutLengthPrefixedSlice(&s, "alpha");
  PutLengthPrefixedSlice(&s, "");
  PutLengthPrefixedSlice(&s, std::string(5000, 'x'));
  Slice in(s), out;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.ToString(), "alpha");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.size(), 5000u);
}

TEST(Crc32cTest, KnownValues) {
  // CRC of 32 zero bytes (standard test vector for crc32c).
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
  char ones[32];
  memset(ones, 0xff, sizeof(ones));
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62a8ab43u);
}

TEST(Crc32cTest, ExtendEqualsWholeBuffer) {
  const char* data = "hello world, this is a crc test buffer";
  size_t n = strlen(data);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t partial = crc32c::Value(data, split);
    EXPECT_EQ(crc32c::Extend(partial, data + split, n - split),
              crc32c::Value(data, n));
  }
}

TEST(Crc32cTest, ExtendMatchesTableKernel) {
  // Whichever kernel Extend picked must agree with the table kernel on
  // every length a block or record can take, from unaligned starts, and
  // when chained across a split.
  Random rnd(301);
  std::string buf;
  rnd.RandomBytes(4100 + 8, &buf);
  for (size_t len = 0; len <= 4100; ++len) {
    for (size_t start : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
      const char* p = buf.data() + start;
      const uint32_t want = crc32c::ExtendPortable(0, p, len);
      ASSERT_EQ(crc32c::Extend(0, p, len), want)
          << "len " << len << " start " << start;
      const size_t split = len * start / 8;
      ASSERT_EQ(crc32c::Extend(crc32c::Extend(0, p, split), p + split,
                               len - split),
                want)
          << "len " << len << " split " << split;
      ASSERT_EQ(crc32c::Extend(0x12345678u, p, len),
                crc32c::ExtendPortable(0x12345678u, p, len));
    }
  }
  // The known vectors hold for the table kernel too.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::ExtendPortable(0, zeros, sizeof(zeros)), 0x8a9136aau);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, UINT32_MAX}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
}

TEST(RandomTest, UniformWithinRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, RandomStringHasRequestedLength) {
  Random r(1);
  std::string s;
  r.RandomString(33, &s);
  EXPECT_EQ(s.size(), 33u);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator gen(1000, 0.99, 5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(), 1000u);
  }
}

TEST(ZipfianTest, SkewConcentratesMass) {
  // With theta=0.99 over 1000 items, rank 0 should receive far more draws
  // than the median item.
  ZipfianGenerator gen(1000, 0.99, 11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[gen.Next()]++;
  EXPECT_GT(counts[0], 2500);  // > 5% of draws on the hottest item
}

TEST(ZipfianTest, LowThetaIsNearUniform) {
  ZipfianGenerator gen(100, 0.01, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.Next()]++;
  // No item should exceed ~3x the uniform share.
  for (auto& [item, count] : counts) {
    EXPECT_LT(count, 3000) << "item " << item;
  }
}

TEST(ScrambledZipfianTest, HotItemsAreScattered) {
  ScrambledZipfianGenerator gen(100000, 0.99, 13);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[gen.Next()]++;
  // Collect the 10 hottest items; they should not be adjacent ranks.
  std::vector<std::pair<int, uint64_t>> by_count;
  for (auto& [item, count] : counts) by_count.emplace_back(count, item);
  std::sort(by_count.rbegin(), by_count.rend());
  std::set<uint64_t> hot;
  for (int i = 0; i < 10 && i < static_cast<int>(by_count.size()); ++i) {
    hot.insert(by_count[i].second);
  }
  // Max pairwise adjacency count among hot items must be small.
  int adjacent = 0;
  for (uint64_t h : hot) {
    if (hot.count(h + 1)) ++adjacent;
  }
  EXPECT_LE(adjacent, 3);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Average(), 50.5);
  // Median should be around 50 (bucketized estimate).
  EXPECT_NEAR(h.Percentile(50), 50, 15);
  EXPECT_NEAR(h.Percentile(99), 99, 20);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

// Pull a numeric field out of a flat JSON object: ..."key":<number>...
double JsonField(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return -1;
  return strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(HistogramTest, ToJsonRoundTripsSummaryStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  std::string json = h.ToJson();
  EXPECT_EQ(JsonField(json, "count"), 100.0);
  EXPECT_EQ(JsonField(json, "sum"), h.sum());
  EXPECT_EQ(JsonField(json, "min"), 1.0);
  EXPECT_EQ(JsonField(json, "max"), 100.0);
  EXPECT_DOUBLE_EQ(JsonField(json, "avg"), 50.5);
  EXPECT_NEAR(JsonField(json, "p50"), h.Percentile(50), 1e-6);
  EXPECT_NEAR(JsonField(json, "p99"), h.Percentile(99), 1e-6);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(HistogramTest, ToJsonBucketsMatchCounts) {
  Histogram h;
  h.Add(1);
  h.Add(1);
  h.Add(1000000);
  std::string json = h.ToJson();
  // Only non-empty buckets appear; their counts sum to count().
  size_t pos = json.find("\"buckets\":[");
  ASSERT_NE(pos, std::string::npos) << json;
  uint64_t total = 0;
  int buckets = 0;
  pos += strlen("\"buckets\":[");
  while (json[pos] == '[') {
    const char* p = json.c_str() + pos + 1;
    char* end = nullptr;
    uint64_t limit = strtoull(p, &end, 10);
    ASSERT_EQ(*end, ',') << json.substr(pos, 40);
    uint64_t count = strtoull(end + 1, &end, 10);
    ASSERT_EQ(*end, ']') << json.substr(pos, 40);
    EXPECT_GT(count, 0u);
    EXPECT_GT(limit, 0u);
    total += count;
    ++buckets;
    pos = (end - json.c_str()) + 1;
    if (json[pos] == ',') ++pos;
  }
  EXPECT_EQ(json[pos], ']');
  EXPECT_EQ(buckets, 2);
  EXPECT_EQ(total, h.count());
}

TEST(HistogramTest, ToJsonEmptyHistogram) {
  Histogram h;
  std::string json = h.ToJson();
  EXPECT_EQ(JsonField(json, "count"), 0.0);
  EXPECT_EQ(JsonField(json, "min"), 0.0);
  EXPECT_EQ(JsonField(json, "max"), 0.0);
  EXPECT_NE(json.find("\"buckets\":[]"), std::string::npos);
}

TEST(ArenaTest, AllocatesUsableMemory) {
  Arena arena;
  Random r(19);
  std::vector<std::pair<char*, size_t>> allocs;
  for (int i = 0; i < 200; ++i) {
    size_t n = 1 + r.Uniform(3000);
    char* p = arena.Allocate(n);
    memset(p, static_cast<int>(i & 0xff), n);
    allocs.emplace_back(p, n);
  }
  // Earlier writes must be intact (no overlap).
  for (size_t i = 0; i < allocs.size(); ++i) {
    for (size_t j = 0; j < allocs[i].second; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(allocs[i].first[j]), i & 0xff);
    }
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
}

TEST(ArenaTest, AlignedAllocationIsAligned) {
  Arena arena;
  for (int i = 0; i < 50; ++i) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(16);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  }
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 1000; ++i) {
    key_storage.push_back("key" + std::to_string(i));
  }
  for (auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy.CreateFilter(keys, &filter);
  for (auto& k : key_storage) {
    EXPECT_TRUE(policy.KeyMayMatch(k, filter)) << k;
  }
}

// Build and open collect 32-bit key hashes instead of keys; the filter
// over the hashes must be CreateFilter's over the keys, bit for bit.
TEST(BloomTest, FilterFromHashesMatchesCreateFilter) {
  for (int bits_per_key : {1, 10, 16}) {
    BloomFilterPolicy policy(bits_per_key);
    for (int n : {0, 1, 7, 1000}) {
      std::vector<std::string> key_storage;
      for (int i = 0; i < n; ++i) {
        key_storage.push_back("key" + std::to_string(i * 7919));
      }
      std::vector<Slice> keys(key_storage.begin(), key_storage.end());
      std::vector<uint32_t> hashes;
      for (const Slice& key : keys) {
        hashes.push_back(BloomFilterPolicy::BloomHash(key));
      }
      std::string from_keys = "prefix";
      std::string from_hashes = "prefix";
      policy.CreateFilter(keys, &from_keys);
      policy.CreateFilterFromHashes(hashes, &from_hashes);
      EXPECT_EQ(from_hashes, from_keys) << bits_per_key << " " << n;
    }
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 1000; ++i) {
    key_storage.push_back("key" + std::to_string(i));
  }
  for (auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy.CreateFilter(keys, &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    std::string probe = "absent" + std::to_string(i);
    if (policy.KeyMayMatch(probe, filter)) ++false_positives;
  }
  // ~1% expected at 10 bits/key; allow generous margin.
  EXPECT_LT(false_positives, 300);
}

TEST(ComparatorTest, BytewiseOrder) {
  const Comparator* cmp = BytewiseComparator();
  EXPECT_LT(cmp->Compare("a", "b"), 0);
  EXPECT_EQ(cmp->Compare("same", "same"), 0);
}

TEST(ComparatorTest, ShortestSeparatorShortens) {
  const Comparator* cmp = BytewiseComparator();
  std::string start = "abcdefghij";
  cmp->FindShortestSeparator(&start, "abcdzzzz");
  EXPECT_LT(start.size(), 10u);
  EXPECT_GT(start.compare("abcdefghij"), 0);
  EXPECT_LT(Slice(start).compare("abcdzzzz"), 0);
}

TEST(ComparatorTest, ShortSuccessorIsGreaterOrEqual) {
  const Comparator* cmp = BytewiseComparator();
  std::string key = "hello";
  cmp->FindShortSuccessor(&key);
  EXPECT_GE(Slice(key).compare("hello"), 0);
  EXPECT_LE(key.size(), 5u);
}

TEST(ClockTest, SystemClockMonotonic) {
  Clock* c = SystemClock();
  uint64_t a = c->NowNanos();
  uint64_t b = c->NowNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SleepInjectsAtLeastRequested) {
  Clock* c = SystemClock();
  uint64_t start = c->NowNanos();
  c->SleepForNanos(20'000);  // 20 us
  EXPECT_GE(c->NowNanos() - start, 20'000u);
}

TEST(ClockTest, MockClockAdvancesManually) {
  MockClock mc(100);
  EXPECT_EQ(mc.NowNanos(), 100u);
  mc.SleepForNanos(50);
  EXPECT_EQ(mc.NowNanos(), 150u);
  mc.Advance(10);
  EXPECT_EQ(mc.NowNanos(), 160u);
}

TEST(ScopedTimerTest, AccumulatesElapsed) {
  MockClock mc;
  uint64_t total = 0;
  {
    ScopedTimer t(&mc, &total);
    mc.Advance(123);
  }
  EXPECT_EQ(total, 123u);
}

}  // namespace
}  // namespace pmblade
