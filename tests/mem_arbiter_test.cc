// Tests for the src/mem subsystem: MemoryBudget invariants (sum
// conservation, floors) and the MemoryArbiter feedback loop (convergence
// under read-heavy / write-heavy / shifting synthetic workloads,
// hysteresis, idle-window gating), plus a DB-level test that exercises
// rebalances racing concurrent Get/Put/flush traffic (run under TSan in
// CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "mem/arbiter.h"
#include "mem/memory_budget.h"

namespace pmblade {
namespace mem {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

MemoryBudget MakeBudget(uint64_t total = 32 * kMiB) {
  uint64_t floors[kNumComponents] = {kMiB, kMiB, 4096};
  uint64_t initial[kNumComponents] = {8 * kMiB, 8 * kMiB, 16 * kMiB};
  return MemoryBudget(total, floors, initial);
}

uint64_t SumTargets(const MemoryBudget& b) {
  uint64_t sum = 0;
  for (int i = 0; i < kNumComponents; ++i) sum += b.target(i);
  return sum;
}

TEST(MemoryBudgetTest, SeedsConfiguredSplit) {
  MemoryBudget b = MakeBudget();
  EXPECT_EQ(b.total(), 32 * kMiB);
  EXPECT_EQ(b.target(kMemtable), 8 * kMiB);
  EXPECT_EQ(b.target(kBlockCache), 8 * kMiB);
  EXPECT_EQ(b.target(kKeepSet), 16 * kMiB);
  EXPECT_EQ(SumTargets(b), b.total());
}

TEST(MemoryBudgetTest, SurplusLandsOnKeepSet) {
  uint64_t floors[kNumComponents] = {kMiB, kMiB, 4096};
  uint64_t initial[kNumComponents] = {2 * kMiB, 2 * kMiB, kMiB};
  MemoryBudget b(32 * kMiB, floors, initial);
  EXPECT_EQ(b.target(kMemtable), 2 * kMiB);
  EXPECT_EQ(b.target(kBlockCache), 2 * kMiB);
  EXPECT_EQ(b.target(kKeepSet), 28 * kMiB);
  EXPECT_EQ(SumTargets(b), b.total());
}

TEST(MemoryBudgetTest, DeficitShavedFromLargestHeadroom) {
  uint64_t floors[kNumComponents] = {kMiB, kMiB, 4096};
  uint64_t initial[kNumComponents] = {16 * kMiB, 16 * kMiB, 32 * kMiB};
  MemoryBudget b(32 * kMiB, floors, initial);
  EXPECT_EQ(SumTargets(b), b.total());
  for (int i = 0; i < kNumComponents; ++i) {
    EXPECT_GE(b.target(i), b.floor(i)) << MemComponentName(i);
  }
}

TEST(MemoryBudgetTest, TransferConservesSumAndRespectsFloor) {
  MemoryBudget b = MakeBudget();
  EXPECT_EQ(b.Transfer(kKeepSet, kBlockCache, 4 * kMiB), 4 * kMiB);
  EXPECT_EQ(b.target(kBlockCache), 12 * kMiB);
  EXPECT_EQ(b.target(kKeepSet), 12 * kMiB);
  EXPECT_EQ(SumTargets(b), b.total());

  // Draining past the floor is clamped to the available headroom.
  uint64_t headroom = b.target(kMemtable) - b.floor(kMemtable);
  EXPECT_EQ(b.Transfer(kMemtable, kBlockCache, 100 * kMiB), headroom);
  EXPECT_EQ(b.target(kMemtable), b.floor(kMemtable));
  EXPECT_EQ(b.Transfer(kMemtable, kBlockCache, 1), 0u);
  EXPECT_EQ(SumTargets(b), b.total());

  // Degenerate arguments.
  EXPECT_EQ(b.Transfer(kKeepSet, kKeepSet, kMiB), 0u);
  EXPECT_EQ(b.Transfer(kKeepSet, kBlockCache, 0), 0u);
}

// -- Arbiter convergence on synthetic workloads ----------------------------

/// Cumulative synthetic counters a test bumps between RebalanceOnce calls.
struct SyntheticLoad {
  ArbiterInputs cum;

  /// Read-heavy window with a cold cache and SSD fall-through.
  void ReadHeavy(uint64_t n = 1000) {
    cum.reads += n;
    cum.reads_ssd_l1 += n / 4;
    cum.cache_misses += (n * 3) / 4;
    cum.cache_hits += n / 4;
    cum.bloom_checks += n;
  }
  /// Write-heavy window with flush churn and backpressure.
  void WriteHeavy(uint64_t n = 1000) {
    cum.writes += n;
    cum.slowdowns += n / 4;
    cum.stalls += n / 50;
    cum.flushes += n / 100;
  }
  /// Balanced, pressure-free window.
  void Calm(uint64_t n = 1000) {
    cum.reads += n / 2;
    cum.writes += n / 2;
    cum.cache_hits += n / 2;
  }
};

class ArbiterTest : public ::testing::Test {
 protected:
  void Build() {
    uint64_t floors[kNumComponents] = {kMiB, kMiB, 4096};
    uint64_t initial[kNumComponents] = {8 * kMiB, 8 * kMiB, 16 * kMiB};
    budget_.reset(new MemoryBudget(32 * kMiB, floors, initial));
    arbiter_.reset(new MemoryArbiter(
        ArbiterOptions{}, budget_.get(), [this] { return load_.cum; },
        [this](int component, uint64_t target) {
          applied_[component] = target;
          ++applies_;
        }));
    // First tick only records the baseline snapshot.
    EXPECT_FALSE(arbiter_->RebalanceOnce());
  }

  SyntheticLoad load_;
  std::unique_ptr<MemoryBudget> budget_;
  std::unique_ptr<MemoryArbiter> arbiter_;
  uint64_t applied_[kNumComponents] = {0, 0, 0};
  int applies_ = 0;
};

TEST_F(ArbiterTest, ReadHeavyColdCacheGrowsBlockCache) {
  Build();
  uint64_t before = budget_->target(kBlockCache);
  for (int i = 0; i < 10; ++i) {
    load_.ReadHeavy();
    arbiter_->RebalanceOnce();
  }
  EXPECT_GT(budget_->target(kBlockCache), before);
  EXPECT_GT(arbiter_->rebalances(), 0u);
  EXPECT_EQ(SumTargets(*budget_), budget_->total());
  // The apply callback saw the winner's new target.
  EXPECT_EQ(applied_[kBlockCache], budget_->target(kBlockCache));
  EXPECT_GT(applies_, 0);
}

TEST_F(ArbiterTest, WriteHeavyBackpressureGrowsMemtable) {
  Build();
  uint64_t before = budget_->target(kMemtable);
  for (int i = 0; i < 10; ++i) {
    load_.WriteHeavy();
    arbiter_->RebalanceOnce();
  }
  EXPECT_GT(budget_->target(kMemtable), before);
  EXPECT_EQ(SumTargets(*budget_), budget_->total());
}

TEST_F(ArbiterTest, ShiftingWorkloadReversesTheFlow) {
  Build();
  for (int i = 0; i < 12; ++i) {
    load_.ReadHeavy();
    arbiter_->RebalanceOnce();
  }
  uint64_t cache_peak = budget_->target(kBlockCache);
  uint64_t mem_low = budget_->target(kMemtable);
  // Flip to write-heavy: budget must flow back toward the memtable.
  for (int i = 0; i < 12; ++i) {
    load_.WriteHeavy();
    arbiter_->RebalanceOnce();
  }
  EXPECT_GT(budget_->target(kMemtable), mem_low);
  EXPECT_LT(budget_->target(kBlockCache), cache_peak);
  EXPECT_EQ(SumTargets(*budget_), budget_->total());
}

TEST_F(ArbiterTest, FloorsHoldUnderSustainedPressure) {
  Build();
  for (int i = 0; i < 200; ++i) {
    load_.ReadHeavy();
    arbiter_->RebalanceOnce();
  }
  for (int i = 0; i < kNumComponents; ++i) {
    EXPECT_GE(budget_->target(i), budget_->floor(i)) << MemComponentName(i);
  }
  EXPECT_EQ(SumTargets(*budget_), budget_->total());
}

TEST_F(ArbiterTest, CalmWindowsDoNotDrift) {
  Build();
  uint64_t before[kNumComponents];
  for (int i = 0; i < kNumComponents; ++i) before[i] = budget_->target(i);
  for (int i = 0; i < 20; ++i) {
    load_.Calm();
    EXPECT_FALSE(arbiter_->RebalanceOnce());
  }
  for (int i = 0; i < kNumComponents; ++i) {
    EXPECT_EQ(budget_->target(i), before[i]) << MemComponentName(i);
  }
  EXPECT_EQ(arbiter_->rebalances(), 0u);
}

TEST_F(ArbiterTest, IdleWindowsAreSkipped) {
  Build();
  // Fewer than min_ops_per_tick operations: the tick is skipped and the
  // pressure math never runs.
  load_.cum.reads += 10;
  load_.cum.cache_misses += 10;
  EXPECT_FALSE(arbiter_->RebalanceOnce());
  EXPECT_EQ(arbiter_->rebalances(), 0u);
}

TEST_F(ArbiterTest, ToJsonReflectsState) {
  Build();
  for (int i = 0; i < 5; ++i) {
    load_.ReadHeavy();
    arbiter_->RebalanceOnce();
  }
  std::string json = arbiter_->ToJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"block_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"last_move\""), std::string::npos);
}

// -- DB-level: rebalances racing live traffic ------------------------------

TEST(MemArbiterDbTest, ConcurrentTrafficDuringRebalances) {
  std::string dbname = ::testing::TempDir() + "pmblade_mem_arbiter_test";
  Options options;
  DestroyDB(options, dbname);
  options.memtable_bytes = 64 << 10;
  options.block_cache_bytes = 256 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.memory_budget_bytes = 8ull << 20;
  options.arbiter_interval_ms = 1;  // hammer rebalances under TSan

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::string key = "key" + std::to_string(i % 4096);
      if (!db->Put(WriteOptions(), key, std::string(128, 'v')).ok()) {
        failures.fetch_add(1);
      }
      ++i;
    }
  });
  std::thread reader([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::string value;
      Status s =
          db->Get(ReadOptions(), "key" + std::to_string(i % 8192), &value);
      if (!s.ok() && !s.IsNotFound()) failures.fetch_add(1);
      ++i;
    }
  });
  std::thread flusher([&] {
    for (int i = 0; i < 5; ++i) {
      db->FlushMemTable();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  flusher.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  std::string json;
  ASSERT_TRUE(db->GetProperty("pmblade.mem.json", &json));
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  uint64_t limit = 0;
  ASSERT_TRUE(db->GetProperty("pmblade.memtable.limit", &limit));
  EXPECT_GT(limit, 0u);

  db.reset();
  DestroyDB(options, dbname);
}

TEST(MemArbiterDbTest, DisabledArbiterReportsSo) {
  std::string dbname = ::testing::TempDir() + "pmblade_mem_arbiter_off_test";
  Options options;
  DestroyDB(options, dbname);
  options.pm_latency.inject_latency = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string json;
  ASSERT_TRUE(db->GetProperty("pmblade.mem.json", &json));
  EXPECT_EQ(json, "{\"enabled\":false}");
  db.reset();
  DestroyDB(options, dbname);
}

}  // namespace
}  // namespace mem
}  // namespace pmblade
