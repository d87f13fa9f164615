// Self-tests of the benchmark's arithmetic and request codec.

#include <gtest/gtest.h>

#include <chrono>

#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using pmblade::net::RespValue;
using std::chrono::milliseconds;

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 95), 7);
  EXPECT_EQ(Percentile({1, 2, 3}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2);  // ceil(0.5 * 4) = rank 2
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(FasterHalf, KeepsTheFastestCeilHalf) {
  // Rounds 1 and 4 were slowed by the host: they must not be picked.
  EXPECT_EQ(FasterHalf({100, 40, 98, 102, 45}),
            (std::vector<size_t>{3, 0, 2}));
  EXPECT_EQ(FasterHalf({10, 20, 30, 40}), (std::vector<size_t>{3, 2}));
  EXPECT_EQ(FasterHalf({7, 7}), (std::vector<size_t>{0}));  // stable on ties
  EXPECT_EQ(FasterHalf({7}), (std::vector<size_t>{0}));
  EXPECT_TRUE(FasterHalf({}).empty());
}

TEST(Ratio, ZeroBaseIsZero) {
  EXPECT_EQ(Ratio(5, 0), 0);
  EXPECT_EQ(Ratio(0, 0), 0);
  EXPECT_EQ(Ratio(3, 4), 0.75);
}

TEST(GetReplySplit, HitMissFailed) {
  RespValue hit;
  hit.type = RespValue::Type::kBulkString;
  hit.str = "";  // an empty value is still a hit
  RespValue miss;
  miss.type = RespValue::Type::kNull;
  RespValue busy;
  busy.type = RespValue::Type::kError;
  busy.str = "BUSY";
  RespValue wrong;
  wrong.type = RespValue::Type::kInteger;
  EXPECT_EQ(ClassifyGetReply(hit), GetReply::kHit);
  EXPECT_EQ(ClassifyGetReply(miss), GetReply::kMiss);
  EXPECT_EQ(ClassifyGetReply(busy), GetReply::kFailed);
  EXPECT_EQ(ClassifyGetReply(wrong), GetReply::kFailed);
}

TEST(SelfTimes, SubtractsContainedCallsOfTheSameKey) {
  std::vector<TimedKey> requests = {
      {1, 100, 200},  // encloses call [120,150] on key 1 -> self 70
      {2, 100, 200},  // call on key 2 starts inside but ends after -> none
      {3, 300, 400},  // no call at all -> skipped
      {1, 500, 600},  // two calls on key 1 inside -> 100 - 20 - 30
  };
  std::vector<TimedKey> calls = {
      {2, 150, 250}, {1, 560, 590}, {1, 120, 150},
      {1, 510, 530}, {1, 90, 110},  // starts before request 0: not inside
  };
  std::vector<double> self = SelfTimes(requests, calls);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 50);
}

TEST(WaitForIdle, TimesOutWhenNeverIdle) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(WaitForIdle([] { return false; }, milliseconds(30),
                           milliseconds(1)));
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(30));
}

TEST(WaitForIdle, NeedsConsecutiveIdlePolls) {
  int polls = 0;
  // Idle, busy, then idle for good: the first idle poll must not count.
  auto idle = [&] {
    ++polls;
    return polls != 2;
  };
  EXPECT_TRUE(WaitForIdle(idle, milliseconds(1000), milliseconds(1), 3));
  EXPECT_EQ(polls, 5);
}

TEST(Values, RoundTripAndRejectCorruption) {
  const std::string key = KeyName(42);
  EXPECT_EQ(KeyNumber(key), KeyNumberOf(42));
  const std::string v = MakeValue(key, 7, 256);
  ASSERT_EQ(v.size(), 256u);
  uint32_t version = 0;
  ASSERT_TRUE(ParseValue(key, v, &version));
  EXPECT_EQ(version, 7u);
  std::string flipped = v;
  flipped[100] = flipped[100] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(ParseValue(key, flipped, &version));
  EXPECT_FALSE(ParseValue(KeyName(43), v, &version));
  EXPECT_FALSE(ParseValue(key, v.substr(0, 200), &version));
}

TEST(Generators, SameSeedSameStream) {
  ScrambledZipfian zipf(1000, 0.99);
  Rng a(5), b(5), c(6);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = zipf.Next(&a);
    EXPECT_EQ(x, zipf.Next(&b));
    EXPECT_LT(x, 1000u);
    differs |= x != zipf.Next(&c);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace perfbench
