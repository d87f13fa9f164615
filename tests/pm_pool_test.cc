// Tests for the simulated persistent-memory pool: allocation, free-space
// reuse, persistence/recovery, latency accounting.

#include <gtest/gtest.h>

#include <cstring>

#include "pm/pm_pool.h"

namespace pmblade {
namespace {

class PmPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_pool_test.pm";
    ::remove(path_.c_str());
    opts_.capacity = 4 << 20;  // 4 MiB
    opts_.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, opts_, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  std::string path_;
  PmPoolOptions opts_;
  std::unique_ptr<PmPool> pool_;
};

TEST_F(PmPoolTest, AllocateAndReadBack) {
  PmPool::ObjectInfo info;
  char* data = nullptr;
  ASSERT_TRUE(pool_->Allocate(100, 7, &info, &data).ok());
  ASSERT_NE(data, nullptr);
  memcpy(data, "persistent-memory", 17);
  pool_->Persist(data, 17);

  EXPECT_EQ(info.kind, 7u);
  EXPECT_EQ(info.size, 100u);
  char* again = pool_->DataFor(info.id);
  ASSERT_EQ(again, data);
  EXPECT_EQ(memcmp(again, "persistent-memory", 17), 0);
}

TEST_F(PmPoolTest, IdsAreMonotonic) {
  PmPool::ObjectInfo a, b;
  char* p;
  ASSERT_TRUE(pool_->Allocate(10, 1, &a, &p).ok());
  ASSERT_TRUE(pool_->Allocate(10, 1, &b, &p).ok());
  EXPECT_GT(b.id, a.id);
}

TEST_F(PmPoolTest, FreeReturnsSpace) {
  uint64_t before = pool_->FreeBytes();
  PmPool::ObjectInfo info;
  char* p;
  ASSERT_TRUE(pool_->Allocate(1000, 1, &info, &p).ok());
  EXPECT_LT(pool_->FreeBytes(), before);
  ASSERT_TRUE(pool_->Free(info.id).ok());
  EXPECT_EQ(pool_->FreeBytes(), before);
  EXPECT_EQ(pool_->DataFor(info.id), nullptr);
}

TEST_F(PmPoolTest, FreeUnknownIdFails) {
  EXPECT_TRUE(pool_->Free(424242).IsNotFound());
}

TEST_F(PmPoolTest, ExhaustionReturnsBusy) {
  PmPool::ObjectInfo info;
  char* p;
  Status s;
  int allocations = 0;
  while ((s = pool_->Allocate(1 << 20, 1, &info, &p)).ok()) {
    ++allocations;
    ASSERT_LT(allocations, 100);
  }
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_GE(allocations, 3);  // ~4 MiB capacity, 1 MiB objects
}

TEST_F(PmPoolTest, FreeCoalescingAllowsLargeRealloc) {
  // Allocate three adjacent 1 MiB objects, free them all, then allocate
  // 3 MiB: only possible if extents coalesce.
  PmPool::ObjectInfo a, b, c;
  char* p;
  ASSERT_TRUE(pool_->Allocate(1 << 20, 1, &a, &p).ok());
  ASSERT_TRUE(pool_->Allocate(1 << 20, 1, &b, &p).ok());
  ASSERT_TRUE(pool_->Allocate(1 << 20, 1, &c, &p).ok());
  ASSERT_TRUE(pool_->Free(b.id).ok());
  ASSERT_TRUE(pool_->Free(a.id).ok());
  ASSERT_TRUE(pool_->Free(c.id).ok());
  PmPool::ObjectInfo big;
  EXPECT_TRUE(pool_->Allocate(3 << 20, 1, &big, &p).ok());
}

TEST_F(PmPoolTest, ListObjectsReturnsLive) {
  PmPool::ObjectInfo a, b;
  char* p;
  ASSERT_TRUE(pool_->Allocate(10, 1, &a, &p).ok());
  ASSERT_TRUE(pool_->Allocate(20, 2, &b, &p).ok());
  ASSERT_TRUE(pool_->Free(a.id).ok());
  auto objects = pool_->ListObjects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].id, b.id);
  EXPECT_EQ(objects[0].kind, 2u);
}

TEST_F(PmPoolTest, SurvivesReopen) {
  PmPool::ObjectInfo info;
  char* data;
  ASSERT_TRUE(pool_->Allocate(64, 9, &info, &data).ok());
  memcpy(data, "durable!", 8);
  pool_->Persist(data, 8);
  uint64_t id = info.id;
  pool_.reset();  // close

  ASSERT_TRUE(PmPool::Open(path_, opts_, &pool_).ok());
  auto objects = pool_->ListObjects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].id, id);
  EXPECT_EQ(objects[0].kind, 9u);
  char* recovered = pool_->DataFor(id);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(memcmp(recovered, "durable!", 8), 0);
}

TEST_F(PmPoolTest, ReopenKeepsIdsUnique) {
  PmPool::ObjectInfo a;
  char* p;
  ASSERT_TRUE(pool_->Allocate(10, 1, &a, &p).ok());
  pool_.reset();
  ASSERT_TRUE(PmPool::Open(path_, opts_, &pool_).ok());
  PmPool::ObjectInfo b;
  ASSERT_TRUE(pool_->Allocate(10, 1, &b, &p).ok());
  EXPECT_GT(b.id, a.id);
}

TEST_F(PmPoolTest, CapacityMismatchRejected) {
  pool_.reset();
  PmPoolOptions other = opts_;
  other.capacity = 8 << 20;
  std::unique_ptr<PmPool> p2;
  Status s = PmPool::Open(path_, other, &p2);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(PmPoolTest, StatsTrackTraffic) {
  pool_->InjectRead(1000, 3);
  pool_->InjectWrite(500);
  EXPECT_EQ(pool_->stats().bytes_read(), 1000u);
  EXPECT_EQ(pool_->stats().read_accesses(), 3u);
  EXPECT_EQ(pool_->stats().bytes_written(), 500u);
  EXPECT_GT(pool_->stats().persists(), 0u);  // directory persists count too
}

TEST_F(PmPoolTest, LatencyInjectionSleeps) {
  pool_->set_inject_latency(true);
  Clock* clock = SystemClock();
  uint64_t start = clock->NowNanos();
  pool_->InjectRead(0, 300);  // 300 accesses * 300 ns = 90 us
  EXPECT_GE(clock->NowNanos() - start, 80'000u);
  pool_->set_inject_latency(false);
}

TEST_F(PmPoolTest, UsedPlusFreeEqualsCapacity) {
  PmPool::ObjectInfo info;
  char* p;
  ASSERT_TRUE(pool_->Allocate(777, 1, &info, &p).ok());
  // Alignment rounds used space up; used + free always equals capacity.
  EXPECT_EQ(pool_->UsedBytes() + pool_->FreeBytes(), pool_->capacity());
}

TEST_F(PmPoolTest, ZeroSizeAllocationRejected) {
  PmPool::ObjectInfo info;
  char* p;
  EXPECT_TRUE(pool_->Allocate(0, 1, &info, &p).IsInvalidArgument());
}

TEST_F(PmPoolTest, AllocatePersistsThePrefixBeforeTheObjectIsLive) {
  PmPool::ObjectInfo info;
  char* data = nullptr;
  ASSERT_TRUE(pool_->Allocate(256, 5, &info, &data).ok());
  memset(data, 'x', 256);
  pool_->Persist(data, 256);
  ASSERT_TRUE(pool_->Free(info.id).ok());
  const uint64_t persists = pool_->stats().persists();
  ASSERT_TRUE(pool_->Allocate(256, 5, Slice("header"), &info, &data).ok());
  EXPECT_EQ(memcmp(data, "header", 6), 0);
  EXPECT_EQ(data[6], 'x');  // only the prefix is written
  // The prefix, then the directory entry and its live state.
  EXPECT_EQ(pool_->stats().persists() - persists, 3u);
  EXPECT_TRUE(pool_->Allocate(4, 5, Slice("too long"), &info, &data)
                  .IsInvalidArgument());
}

TEST_F(PmPoolTest, ReleasedPagesKeepTheirBytes) {
  for (bool crash_sim : {false, true}) {
    pool_.reset();
    ::remove(path_.c_str());
    opts_.crash_sim = crash_sim;
    ASSERT_TRUE(PmPool::Open(path_, opts_, &pool_).ok());
    PmPool::ObjectInfo info;
    char* data = nullptr;
    ASSERT_TRUE(pool_->Allocate(64 << 10, 5, &info, &data).ok());
    for (int i = 0; i < (64 << 10); ++i) data[i] = static_cast<char>(i * 7);
    pool_->Persist(data, 64 << 10);
    pool_->ReleasePages(data, 64 << 10);
    for (int i = 0; i < (64 << 10); ++i) {
      ASSERT_EQ(data[i], static_cast<char>(i * 7)) << i << " " << crash_sim;
    }
  }
}

}  // namespace
}  // namespace pmblade
