// Tests for EngineParts (src/core/db_impl.h): the block cache, SSD model and
// memory arbiter an engine builds once per process, whatever its shard
// count. A sharded engine opened without an SSD model runs every shard on
// one model, the arbiter's floors do not depend on the shard count, and a
// single-shard engine's arbiter still reports into that engine's trace.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/db.h"
#include "core/sharded_db.h"

namespace pmblade {
namespace {

class EnginePartsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_engine_parts_test";
    options_.memtable_bytes = 64 << 10;
    options_.pm_pool_capacity = 8 << 20;
    options_.pm_latency.inject_latency = false;
  }

  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  void Open() {
    db_.reset();
    DestroyDB(options_, dbname_);
    Status s = DB::Open(options_, dbname_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  uint64_t Property(const std::string& name) {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  /// The "floor" of `component` in pmblade.mem.json.
  uint64_t MemFloor(const std::string& component) {
    std::string json;
    EXPECT_TRUE(db_->GetProperty("pmblade.mem.json", &json));
    const size_t at = json.find("\"name\":\"" + component + "\"");
    EXPECT_NE(at, std::string::npos) << json;
    const size_t floor = json.find("\"floor\":", at);
    EXPECT_NE(floor, std::string::npos) << json;
    if (at == std::string::npos || floor == std::string::npos) return 0;
    return std::stoull(json.substr(floor + 8));
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(EnginePartsTest, ShardsShareOneSsdModel) {
  options_.num_shards = 2;  // and no ssd_model
  Open();
  auto* sharded = static_cast<ShardedDB*>(db_.get());
  EXPECT_EQ(sharded->shard(0)->ssd_model(), sharded->shard(1)->ssd_model());

  const std::string value(100, 'v');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  // Both shards wrote SSTables, to one device: the facade counts it once.
  EXPECT_GT(Property("pmblade.shard.1.lsm.l1_bytes"), 0u);
  const uint64_t written = Property("pmblade.ssd.bytes_written");
  EXPECT_GT(written, 0u);
  EXPECT_EQ(Property("pmblade.shard.0.ssd.bytes_written"), written);
  EXPECT_EQ(Property("pmblade.shard.1.ssd.bytes_written"), written);
}

TEST_F(EnginePartsTest, ArbiterFloorsDoNotDependOnShardCount) {
  options_.memory_budget_bytes = 1 << 20;
  options_.arbiter_interval_ms = 3600 * 1000;  // no tick during the test
  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    options_.num_shards = shards;
    Open();
    // max(64 KiB, budget / 32) for the memtable and the cache, whatever
    // the shard count.
    EXPECT_EQ(MemFloor("memtable"), 64u << 10);
    EXPECT_EQ(MemFloor("block_cache"), 64u << 10);
    EXPECT_EQ(MemFloor("keep_set"), 4096u);
  }
}

TEST_F(EnginePartsTest, SingleShardArbiterEventsReachItsTrace) {
  options_.memory_budget_bytes = 8 << 20;
  // Long enough for a window of 64 operations under a sanitizer.
  options_.arbiter_interval_ms = 50;
  options_.pm_pool_capacity = 64 << 20;
  Open();
  // Writes alone: flush churn gives the memtable all the pressure, so the
  // arbiter moves budget to it within a few ticks.
  const std::string value(128, 'v');
  std::string trace;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 500; ++i) {
      Status s = db_->Put(WriteOptions(), "k" + std::to_string(i), value);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    if (Property("pmblade.mem.rebalances") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(Property("pmblade.mem.rebalances"), 0u);
  ASSERT_TRUE(db_->GetProperty("pmblade.trace.json", &trace));
  EXPECT_NE(trace.find("mem_rebalance"), std::string::npos);
}

}  // namespace
}  // namespace pmblade
