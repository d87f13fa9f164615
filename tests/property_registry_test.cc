// Coverage of the numeric-property alias table (core/properties.h): on a
// single engine and on a sharded facade, with the block cache and memory
// arbiter on or both off, every hyphenated property resolves to the value
// its registry metric exports, and the memory arbiter's inputs read the
// same registry. The exported metric names and kinds are pinned, so a
// metric cannot disappear unnoticed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/db.h"
#include "core/properties.h"
#include "mem/arbiter.h"
#include "obs/metrics.h"

namespace pmblade {
namespace {

using NameKind = std::pair<std::string, std::string>;

// Every metric a DBImpl exports after a workload that reached a major
// compaction, at the default max_ssd_levels (3).
const NameKind kEngineMetrics[] = {
    {"pmblade.blockcache.capacity", "gauge"},
    {"pmblade.blockcache.charge", "gauge"},
    {"pmblade.blockcache.hits", "gauge"},
    {"pmblade.blockcache.misses", "gauge"},
    {"pmblade.bloom.checks", "counter"},
    {"pmblade.bloom.false_positives", "counter"},
    {"pmblade.bloom.negatives", "counter"},
    {"pmblade.compaction.active", "gauge"},
    {"pmblade.compaction.internal.bytes_in", "counter"},
    {"pmblade.compaction.internal.bytes_out", "counter"},
    {"pmblade.compaction.internal.count", "counter"},
    {"pmblade.compaction.major.bytes", "counter"},
    {"pmblade.compaction.major.coro_resumes", "counter"},
    {"pmblade.compaction.major.count", "counter"},
    {"pmblade.compaction.major.duration_nanos", "histogram"},
    {"pmblade.compaction.major.s1_reads", "counter"},
    {"pmblade.compaction.major.s3_writes", "counter"},
    {"pmblade.compaction.major.ssd_bytes", "counter"},
    {"pmblade.compaction.major.wall_nanos", "counter"},
    {"pmblade.compaction.queue_depth", "gauge"},
    {"pmblade.compaction.running", "gauge"},
    {"pmblade.compaction.sched.completed", "counter"},
    {"pmblade.compaction.sched.deduped", "counter"},
    {"pmblade.compaction.sched.failed", "counter"},
    {"pmblade.compaction.sched.queued", "counter"},
    {"pmblade.compaction.sched.retries", "counter"},
    {"pmblade.compaction.subcompactions", "counter"},
    {"pmblade.compaction.workers", "gauge"},
    {"pmblade.cost.decisions", "counter"},
    {"pmblade.cost.eq1_triggered", "counter"},
    {"pmblade.cost.eq2_triggered", "counter"},
    {"pmblade.cost.keep_set_selections", "counter"},
    {"pmblade.flush.bg_flushes", "counter"},
    {"pmblade.flush.count", "counter"},
    {"pmblade.flush.queue_depth", "gauge"},
    {"pmblade.gc.remove_failures", "counter"},
    {"pmblade.io.q_flush", "gauge"},
    {"pmblade.latency.get", "histogram"},
    {"pmblade.latency.put", "histogram"},
    {"pmblade.latency.scan", "histogram"},
    {"pmblade.lsm.l0_bytes", "gauge"},
    {"pmblade.lsm.l1_bytes", "gauge"},
    {"pmblade.lsm.level0.bytes", "gauge"},
    {"pmblade.lsm.level0.files", "gauge"},
    {"pmblade.lsm.level0.runs", "gauge"},
    {"pmblade.lsm.level1.bytes", "gauge"},
    {"pmblade.lsm.level1.files", "gauge"},
    {"pmblade.lsm.level1.runs", "gauge"},
    {"pmblade.lsm.level2.bytes", "gauge"},
    {"pmblade.lsm.level2.files", "gauge"},
    {"pmblade.lsm.level2.runs", "gauge"},
    {"pmblade.lsm.level3.bytes", "gauge"},
    {"pmblade.lsm.level3.files", "gauge"},
    {"pmblade.lsm.level3.runs", "gauge"},
    {"pmblade.lsm.max_ssd_level", "gauge"},
    {"pmblade.lsm.num_partitions", "gauge"},
    {"pmblade.lsm.sorted_tables", "gauge"},
    {"pmblade.lsm.ssd_runs", "gauge"},
    {"pmblade.lsm.unsorted_tables", "gauge"},
    {"pmblade.mem.rebalances", "counter"},
    {"pmblade.memtable.limit", "gauge"},
    {"pmblade.pm.bytes_read", "counter"},
    {"pmblade.pm.bytes_written", "counter"},
    {"pmblade.pm.capacity_bytes", "gauge"},
    {"pmblade.pm.free_bytes", "gauge"},
    {"pmblade.pm.largest_free_extent", "gauge"},
    {"pmblade.pm.persists", "counter"},
    {"pmblade.pm.read_accesses", "counter"},
    {"pmblade.pm.used_bytes", "gauge"},
    {"pmblade.policy", "gauge"},
    {"pmblade.reads.memtable", "counter"},
    {"pmblade.reads.miss", "counter"},
    {"pmblade.reads.pm_l0", "counter"},
    {"pmblade.reads.ssd_l1", "counter"},
    {"pmblade.scan.entries", "counter"},
    {"pmblade.scans", "counter"},
    {"pmblade.shards", "gauge"},
    {"pmblade.snapshots.open", "gauge"},
    {"pmblade.ssd.busy_nanos", "counter"},
    {"pmblade.ssd.bytes_read", "counter"},
    {"pmblade.ssd.bytes_written", "counter"},
    {"pmblade.ssd.inflight.client", "gauge"},
    {"pmblade.ssd.inflight.compaction", "gauge"},
    {"pmblade.ssd.inflight.flush", "gauge"},
    {"pmblade.ssd.latency_nanos", "histogram"},
    {"pmblade.ssd.queue_high_water", "gauge"},
    {"pmblade.ssd.reads", "counter"},
    {"pmblade.ssd.service_nanos", "counter"},
    {"pmblade.ssd.writes", "counter"},
    {"pmblade.txn.committed", "counter"},
    {"pmblade.txn.pending", "gauge"},
    {"pmblade.txn.prepared", "counter"},
    {"pmblade.txn.retained", "gauge"},
    {"pmblade.txn.rolled_back", "counter"},
    {"pmblade.wal.append_nanos", "histogram"},
    {"pmblade.wal.pm_bytes", "gauge"},
    {"pmblade.wal.syncs", "counter"},
    {"pmblade.write.group_size", "histogram"},
    {"pmblade.write.group_writes", "counter"},
    {"pmblade.write.groups", "counter"},
    {"pmblade.write.pressure", "gauge"},
    {"pmblade.write.queue_depth", "gauge"},
    {"pmblade.write.slowdowns", "counter"},
    {"pmblade.write.stall_nanos", "counter"},
    {"pmblade.write.stalls", "counter"},
    {"pmblade.write.user_bytes", "counter"},
    {"pmblade.write.writes_per_sync", "gauge"},
    {"pmblade.writes", "counter"},
};

// Added by the memory arbiter, on whichever registry owns it (the engine's,
// or the sharded facade's).
const NameKind kArbiterMetrics[] = {
    {"pmblade.mem.block_cache_target", "gauge"},
    {"pmblade.mem.budget_total", "gauge"},
    {"pmblade.mem.keep_set_target", "gauge"},
    {"pmblade.mem.memtable_target", "gauge"},
    {"pmblade.mem.skipped_ticks", "counter"},
    {"pmblade.mem.ticks", "counter"},
};

// Only the sharded facade resolves cross-shard transactions.
const NameKind kFacadeMetrics[] = {
    {"pmblade.txn.in_doubt", "counter"},
    {"pmblade.txn.resolved_commit", "counter"},
    {"pmblade.txn.resolved_rollback", "counter"},
};

bool IsFacadeMetric(const std::string& name) {
  for (const NameKind& metric : kFacadeMetrics) {
    if (metric.first == name) return true;
  }
  return false;
}

// Param: (shard count, block cache + memory arbiter on).
class PropertyRegistryTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {
 protected:
  void SetUp() override {
    shards_ = std::get<0>(GetParam());
    rich_ = std::get<1>(GetParam());
    dbname_ = ::testing::TempDir() + "pmblade_property_registry_test";
    options_.num_shards = shards_;
    options_.memtable_bytes = 64 << 10;
    options_.pm_pool_capacity = 16 << 20;
    options_.pm_latency.inject_latency = false;
    options_.cost.tau_t = 1 << 10;
    options_.partition_boundaries = {"k3", "k6"};
    if (rich_) {
      options_.memory_budget_bytes = 16 << 20;
      // No tick during the test: the arbiter would move the memtable limit
      // and cache capacity between the reads compared below.
      options_.arbiter_interval_ms = 3600 * 1000;
    } else {
      options_.block_cache_bytes = 0;
      options_.trace_ring_capacity = 0;
    }
    DestroyDB(options_, dbname_);
    std::unique_ptr<DB> db;
    Status s = DB::Open(options_, dbname_, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_ = std::move(db);
    RunWorkload();
  }

  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  // Synced and unsynced writes, a multi-key batch, reads from every level
  // and a major compaction; then waits until background work is idle so
  // the values compared below hold still.
  void RunWorkload() {
    const std::string value(200, 'x');
    WriteOptions synced;
    synced.sync = true;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 600; ++i) {
        const std::string key = "k" + std::to_string((i * 7919 + round) % 2000);
        ASSERT_TRUE(
            db_->Put(i % 50 == 0 ? synced : WriteOptions(), key, value).ok());
      }
      WriteBatch batch;
      for (int i = 0; i < 8; ++i) {
        batch.Put("b" + std::to_string(round * 8 + i), value);
      }
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    ASSERT_TRUE(db_->CompactLevel0().ok());
    ASSERT_TRUE(db_->CompactToLevel1(false).ok());
    std::string out;
    for (int i = 0; i < 300; ++i) {
      (void)db_->Get(ReadOptions(), "k" + std::to_string(i), &out);
    }
    snapshot_ = db_->GetSnapshot();
    for (int attempt = 0; attempt < 2000; ++attempt) {
      uint64_t queued = 1, active = 1;
      ASSERT_TRUE(db_->GetProperty("pmblade.compaction.queue_depth", &queued));
      ASSERT_TRUE(db_->GetProperty("pmblade.compaction.active", &active));
      if (queued == 0 && active == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  uint32_t shards_ = 1;
  bool rich_ = false;
  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
  uint64_t snapshot_ = 0;
};

TEST_P(PropertyRegistryTest, EveryAliasReadsItsExportedMetric) {
  const obs::MetricsSnapshot snap = db_->metrics_registry()->Snapshot();
  for (const PropertyAlias& alias : PropertyAliases()) {
    uint64_t value = 0;
    const bool ok = db_->GetProperty(alias.property, &value);
    if (shards_ == 1 && IsFacadeMetric(alias.metric)) {
      EXPECT_FALSE(ok) << alias.property;
      continue;
    }
    ASSERT_TRUE(ok) << alias.property;
    const obs::MetricSample* sample = snap.Find(alias.metric);
    ASSERT_NE(sample, nullptr) << alias.metric;
    EXPECT_EQ(value, static_cast<uint64_t>(sample->value)) << alias.property;
    // The registry name resolves directly, to the same value.
    uint64_t direct = 0;
    ASSERT_TRUE(db_->GetProperty(alias.metric, &direct)) << alias.metric;
    EXPECT_EQ(direct, value) << alias.metric;
  }

  // The aliases are the four names perfbench polls (a false return would
  // read as 0 there); the loop above holds each to its metric's value.
  EXPECT_EQ(PropertyAliases().size(), 4u);
  uint64_t value = 0;
  for (const char* name :
       {"pmblade.compaction.queue_depth", "pmblade.compaction.active"}) {
    ASSERT_TRUE(db_->GetProperty(name, &value)) << name;
    EXPECT_EQ(value, 0u) << name;
  }
  ASSERT_TRUE(db_->GetProperty("pmblade.pm.used_bytes", &value));
  ASSERT_TRUE(db_->GetProperty("pmblade.lsm.l1_bytes", &value));
  EXPECT_GT(value, 0u);  // the workload compacted everything to SSD

  ASSERT_TRUE(db_->GetProperty("pmblade.shards", &value));
  EXPECT_EQ(value, shards_);
  ASSERT_TRUE(db_->GetProperty("pmblade.snapshots.open", &value));
  EXPECT_EQ(value, 1u);
  EXPECT_FALSE(db_->GetProperty("pmblade.no-such-property", &value));
}

TEST_P(PropertyRegistryTest, ArbiterInputsReadTheRegistry) {
  const mem::ArbiterInputs in = mem::ReadArbiterInputs(*db_->metrics_registry());
  uint64_t value = 0;
  uint64_t reads = 0;
  for (const char* source : {"memtable", "pm_l0", "ssd_l1", "miss"}) {
    ASSERT_TRUE(
        db_->GetProperty(std::string("pmblade.reads.") + source, &value));
    reads += value;
  }
  EXPECT_EQ(in.reads, reads);
  EXPECT_GT(in.reads, 0u);
  ASSERT_TRUE(db_->GetProperty("pmblade.reads.ssd_l1", &value));
  EXPECT_EQ(in.reads_ssd_l1, value);
  ASSERT_TRUE(db_->GetProperty("pmblade.writes", &value));
  EXPECT_EQ(in.writes, value);
  ASSERT_TRUE(db_->GetProperty("pmblade.flush.count", &value));
  EXPECT_EQ(in.flushes, value);
  ASSERT_TRUE(db_->GetProperty("pmblade.bloom.checks", &value));
  EXPECT_EQ(in.bloom_checks, value);
  ASSERT_TRUE(db_->GetProperty("pmblade.write.stalls", &value));
  EXPECT_EQ(in.stalls, value);
}

TEST_P(PropertyRegistryTest, ExportedNamesAndKindsArePinned) {
  std::set<NameKind> expected(std::begin(kEngineMetrics),
                              std::end(kEngineMetrics));
  if (rich_) {
    expected.insert(std::begin(kArbiterMetrics), std::end(kArbiterMetrics));
  }
  if (shards_ > 1) {
    expected.insert(std::begin(kFacadeMetrics), std::end(kFacadeMetrics));
    // Each shard's registry is a single engine's (the arbiter lives on the
    // facade), spliced in under pmblade.shard.<i>.
    for (uint32_t i = 0; i < shards_; ++i) {
      for (const NameKind& metric : kEngineMetrics) {
        expected.emplace("pmblade.shard." + std::to_string(i) + "." +
                             metric.first.substr(sizeof("pmblade.") - 1),
                         metric.second);
      }
    }
  }
  std::set<NameKind> actual;
  for (const obs::MetricSample& sample :
       db_->metrics_registry()->Snapshot().samples) {
    actual.emplace(sample.name, obs::MetricKindName(sample.kind));
  }
  EXPECT_EQ(actual, expected);
}

// Property reads evaluate gauge callbacks that take the DB mutex; run them
// against live writers, flushes and a fast-ticking arbiter (for TSan).
TEST(PropertyRegistryRaceTest, ReadsRaceWritersAndArbiter) {
  const std::string dbname =
      ::testing::TempDir() + "pmblade_property_registry_race_test";
  Options options;
  options.num_shards = 2;
  options.memtable_bytes = 32 << 10;
  options.pm_pool_capacity = 16 << 20;
  options.pm_latency.inject_latency = false;
  options.memory_budget_bytes = 8 << 20;
  options.arbiter_interval_ms = 1;
  DestroyDB(options, dbname);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t value = 0;
    while (!done.load()) {
      for (const PropertyAlias& alias : PropertyAliases()) {
        db->GetProperty(alias.property, &value);
      }
      (void)db->metrics_registry()->Snapshot();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&db, t] {
      const std::string value(100, 'w');
      for (int i = 0; i < 1500; ++i) {
        EXPECT_TRUE(db->Put(WriteOptions(),
                            "w" + std::to_string(t) + "-" + std::to_string(i),
                            value)
                        .ok());
        if (i % 500 == 499) EXPECT_TRUE(db->FlushMemTable().ok());
      }
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true);
  reader.join();
  uint64_t writes = 0;
  ASSERT_TRUE(db->GetProperty("pmblade.writes", &writes));
  EXPECT_EQ(writes, 3000u);
  db.reset();
  DestroyDB(options, dbname);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PropertyRegistryTest,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "Shard" +
             (std::get<1>(info.param) ? "CacheArbiter" : "NoCacheNoArbiter");
    });

}  // namespace
}  // namespace pmblade
