// Model-checked crash-recovery tests.
//
// The randomized cycles (tests/crash_harness.h) power-cut the simulated
// machine at every sync boundary and at randomized SyncPoints inside the
// write path, flush, manifest commit and compaction, reopen, and verify the
// recovered state against a reference model: every acknowledged-durable key
// must survive and the visible state must sit on a write-batch boundary (no
// torn groups). Defaults: fixed seed, 900 crash/reopen cycles across the
// seven configurations, each run once with the WAL in PM (under PM crash
// simulation) and once on the SSD. Override with PMBLADE_CRASH_SEED /
// PMBLADE_CRASH_CYCLES (the latter scales each test's cycle count).
//
// The final test deliberately reintroduces a classic recovery bug —
// deleting a flushed WAL BEFORE the manifest commit that makes it
// redundant — and asserts the harness catches the resulting loss, which is
// the meta-test that the checker has teeth.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "tests/crash_harness.h"
#include "tests/sharded_crash_harness.h"

namespace pmblade {
namespace test {
namespace {

uint64_t SeedFromEnv() {
  const char* s = getenv("PMBLADE_CRASH_SEED");
  return s != nullptr ? strtoull(s, nullptr, 10) : 0xb1adeu;
}

int CyclesFromEnv(int default_cycles) {
  const char* s = getenv("PMBLADE_CRASH_CYCLES");
  if (s == nullptr) return default_cycles;
  long v = strtol(s, nullptr, 10);
  return v > 0 ? static_cast<int>(v) : default_cycles;
}

// Every sweep runs on both WAL devices: the PM WAL (which always runs with
// PM crash simulation) and the SSD WAL.
void RunHarness(const std::string& name_prefix, L0Layout layout,
                bool pm_crash_sim, int default_cycles,
                int compaction_workers = 1, int max_subcompactions = 1,
                const std::string& compaction_policy = "leveled") {
#ifndef PMBLADE_SYNC_POINTS
  GTEST_SKIP() << "built without PMBLADE_SYNC_POINTS";
#endif
  for (bool wal_in_pm : {true, false}) {
    const std::string name =
        name_prefix + (wal_in_pm ? "_pmwal" : "_ssdwal");
    CrashHarnessOptions opts;
    opts.dbname = ::testing::TempDir() + "pmblade_crash_" + name;
    opts.wal_in_pm = wal_in_pm;
    opts.seed = SeedFromEnv();
    opts.cycles = CyclesFromEnv(default_cycles);
    opts.l0_layout = layout;
    opts.pm_crash_sim = pm_crash_sim;
    opts.compaction_workers = compaction_workers;
    opts.max_subcompactions = max_subcompactions;
    opts.compaction_policy = compaction_policy;
    fprintf(stderr, "[crash harness] %s: seed=%llu cycles=%d\n",
            name.c_str(), static_cast<unsigned long long>(opts.seed),
            opts.cycles);

    CrashHarness harness(opts);
    CrashHarnessResult result = harness.Run();
    EXPECT_TRUE(result.ok())
        << name << " cycle " << result.failed_cycle << ": " << result.failure
        << "\nreplay: PMBLADE_CRASH_SEED=" << opts.seed
        << " PMBLADE_CRASH_CYCLES=" << opts.cycles;
    EXPECT_EQ(result.cycles_run, opts.cycles);
    // The plan mix must actually exercise both crash styles.
    EXPECT_GT(result.syncpoint_crashes, 0);
    EXPECT_GT(result.between_op_crashes, 0);
    fprintf(stderr,
            "[crash harness] %s: %d cycles (%d syncpoint, %d between-op), "
            "%lld ops\n",
            name.c_str(), result.cycles_run, result.syncpoint_crashes,
            result.between_op_crashes, result.ops_issued);
  }
}

// 300 + 120 + 100 + 120 + 60 + 100 + 100 = 900 crash/reopen cycles by
// default, per WAL device.

TEST(CrashRecoveryTest, PmLayoutRandomizedCycles) {
  RunHarness("pm", L0Layout::kPmTable, false, 300);
}

TEST(CrashRecoveryTest, SsdLayoutRandomizedCycles) {
  RunHarness("ssd", L0Layout::kSstable, false, 120);
}

TEST(CrashRecoveryTest, PmPersistGranularityCycles) {
  RunHarness("pm_granularity", L0Layout::kPmTable, true, 100);
}

// The parallel-pipeline sweeps: 4 scheduler workers and 4-way subcompactions
// add the BeforeRun / OutputsOpened cut sites between subcompaction
// output-open, stitch, and manifest install, with sibling workers racing the
// crash. CheckNoOrphanSstFiles runs after every reopen inside the harness.

TEST(CrashRecoveryTest, ParallelCompactionRandomizedCycles) {
  RunHarness("parallel_pm", L0Layout::kPmTable, false, 120,
             /*compaction_workers=*/4, /*max_subcompactions=*/4);
}

TEST(CrashRecoveryTest, ParallelCompactionSsdRandomizedCycles) {
  RunHarness("parallel_ssd", L0Layout::kSstable, false, 60,
             /*compaction_workers=*/4, /*max_subcompactions=*/4);
}

// Non-leveled compaction policies: run stacks mean the manifest carries
// multiple level-tagged runs per partition and maintenance replaces blocks
// MID-stack, so power cuts around the install/manifest commit exercise
// recovery paths the leveled policy never reaches. CheckNoOrphanSstFiles
// still runs after every reopen inside the harness.

TEST(CrashRecoveryTest, TieredPolicyRandomizedCycles) {
  RunHarness("tiered", L0Layout::kPmTable, false, 100,
             /*compaction_workers=*/1, /*max_subcompactions=*/1, "tiered");
}

TEST(CrashRecoveryTest, LazyLevelingPolicyRandomizedCycles) {
  RunHarness("lazy_leveling", L0Layout::kPmTable, false, 100,
             /*compaction_workers=*/1, /*max_subcompactions=*/1,
             "lazy_leveling");
}

// ---------------------------------------------------------------------------
// Sharded engine: cross-shard WriteBatch atomicity under power cuts landed
// between the 2PC phases (tests/sharded_crash_harness.h). 500 + 200
// sharded cycles by default, on each WAL device; every remembered batch
// must recover all-or-nothing, and acked cross-shard batches must recover
// whole.
// ---------------------------------------------------------------------------

ShardedCrashHarnessResult RunShardedHarness(
    const std::string& name_prefix, uint32_t num_shards, int default_cycles,
    bool wal_in_pm, std::function<void()> before_open = nullptr) {
  const std::string name = name_prefix + (wal_in_pm ? "_pmwal" : "_ssdwal");
  ShardedCrashHarnessOptions opts;
  opts.dbname = ::testing::TempDir() + "pmblade_crash_" + name;
  opts.wal_in_pm = wal_in_pm;
  opts.seed = SeedFromEnv();
  opts.cycles = CyclesFromEnv(default_cycles);
  opts.num_shards = num_shards;
  opts.before_open = std::move(before_open);
  opts.verbose = getenv("PMBLADE_CRASH_VERBOSE") != nullptr;
  fprintf(stderr, "[sharded crash harness] %s: seed=%llu cycles=%d\n",
          name.c_str(), static_cast<unsigned long long>(opts.seed),
          opts.cycles);
  ShardedCrashHarness harness(opts);
  ShardedCrashHarnessResult result = harness.Run();
  fprintf(stderr,
          "[sharded crash harness] %s: %d cycles (%d syncpoint, %d "
          "between-op), %lld batches (%lld cross-shard)\n",
          name.c_str(), result.cycles_run, result.syncpoint_crashes,
          result.between_op_crashes, result.batches_issued,
          result.cross_shard_batches);
  return result;
}

TEST(ShardedCrashRecoveryTest, CrossShardAtomicityRandomizedCycles) {
#ifndef PMBLADE_SYNC_POINTS
  GTEST_SKIP() << "built without PMBLADE_SYNC_POINTS";
#endif
  for (bool wal_in_pm : {true, false}) {
    SCOPED_TRACE(wal_in_pm ? "pm wal" : "ssd wal");
    ShardedCrashHarnessResult result =
        RunShardedHarness("sharded_2pc", /*num_shards=*/4,
                          /*default_cycles=*/500, wal_in_pm);
    EXPECT_TRUE(result.ok())
        << "cycle " << result.failed_cycle << ": " << result.failure
        << "\nreplay: PMBLADE_CRASH_SEED=" << SeedFromEnv();
    EXPECT_GT(result.syncpoint_crashes, 0);
    EXPECT_GT(result.between_op_crashes, 0);
    EXPECT_GT(result.cross_shard_batches, 0);
  }
}

TEST(ShardedCrashRecoveryTest, TwoShardAtomicityRandomizedCycles) {
#ifndef PMBLADE_SYNC_POINTS
  GTEST_SKIP() << "built without PMBLADE_SYNC_POINTS";
#endif
  // Two shards is the tightest topology: every cross-shard batch has
  // exactly one sibling to leave in doubt.
  for (bool wal_in_pm : {true, false}) {
    SCOPED_TRACE(wal_in_pm ? "pm wal" : "ssd wal");
    ShardedCrashHarnessResult result =
        RunShardedHarness("sharded_2pc_2", /*num_shards=*/2,
                          /*default_cycles=*/200, wal_in_pm);
    EXPECT_TRUE(result.ok())
        << "cycle " << result.failed_cycle << ": " << result.failure
        << "\nreplay: PMBLADE_CRASH_SEED=" << SeedFromEnv();
    EXPECT_GT(result.cross_shard_batches, 0);
  }
}

// Meta-test: recovery that splits one in-doubt txn's verdict — the first
// participant it resolves gets the opposite of the txn's decision — must be
// CAUGHT on either WAL device: that participant's keys and its siblings'
// disagree, which is a torn batch. If the run survives every cycle, the
// checker has no teeth.
TEST(ShardedCrashRecoveryTest, HarnessCatchesSplitResolutionVerdict) {
#ifndef PMBLADE_SYNC_POINTS
  GTEST_SKIP() << "built without PMBLADE_SYNC_POINTS";
#else
  for (bool wal_in_pm : {true, false}) {
    SCOPED_TRACE(wal_in_pm ? "pm wal" : "ssd wal");
    bool flipped = false;
    ShardedCrashHarnessResult result = RunShardedHarness(
        "sharded_split_verdict", /*num_shards=*/4, /*default_cycles=*/250,
        wal_in_pm, [&flipped] {
          flipped = false;
          SyncPoint::GetInstance()->SetCallBack(
              "ShardedDB::ResolveInDoubtTxns:Apply", [&flipped](void* arg) {
                bool* commit = static_cast<bool*>(arg);
                if (!flipped) *commit = !*commit;
                flipped = true;
              });
          SyncPoint::GetInstance()->EnableProcessing();
        });
    SyncPoint::GetInstance()->DisableProcessing();
    SyncPoint::GetInstance()->Reset();
    EXPECT_FALSE(result.ok())
        << "a split resolution verdict survived every power cut — the "
           "sharded checker has no teeth";
    EXPECT_NE(result.failure.find("TORN"), std::string::npos)
        << result.failure;
  }
#endif
}

// ---------------------------------------------------------------------------
// Meta-test: the harness must CATCH a reintroduced early-WAL-delete bug.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, HarnessCatchesEarlyWalDelete) {
#ifndef PMBLADE_SYNC_POINTS
  GTEST_SKIP() << "built without PMBLADE_SYNC_POINTS";
#else
  const std::string dbname =
      ::testing::TempDir() + "pmblade_crash_early_wal_delete";
  CrashEnv crash_env(PosixEnv(), 42);
  Options options;
  options.env = &crash_env;
  options.raw_env = &crash_env;
  options.memtable_bytes = 16 << 10;
  options.pm_pool_capacity = 32 << 20;
  options.pm_latency.inject_latency = false;
  options.wal_in_pm = false;  // the injected bug deletes the log files
  DestroyDB(options, dbname);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  // Acknowledge 50 batches as durable (synced). They live only in the WAL.
  CrashModel model;
  WriteOptions sync_opts;
  sync_opts.sync = true;
  for (int i = 0; i < 50; ++i) {
    ModelBatch batch;
    batch.push_back({false, "key" + std::to_string(i), "durable-value"});
    WriteBatch wb;
    wb.Put(batch[0].key, batch[0].value);
    model.RecordBatch(std::move(batch));
    ASSERT_TRUE(db->Write(sync_opts, &wb).ok());
    model.MarkDurable();
  }

  // The reintroduced bug: when the flush reaches its install point — BEFORE
  // PersistManifest commits the new replay floor — delete the flushed WALs,
  // then the power fails. The surviving (old) manifest still points at the
  // deleted log, whose content exists nowhere else.
  SyncPoint::GetInstance()->SetCallBack(
      "DBImpl::BackgroundFlush:Installed", [&](void*) {
        std::vector<std::string> children;
        EXPECT_TRUE(crash_env.GetChildren(dbname, &children).ok());
        uint64_t newest = 0;
        for (const auto& c : children) {
          if (c.compare(0, 4, "wal-") == 0) {
            newest = std::max<uint64_t>(
                newest, strtoull(c.c_str() + 4, nullptr, 10));
          }
        }
        for (const auto& c : children) {
          if (c.compare(0, 4, "wal-") == 0 &&
              strtoull(c.c_str() + 4, nullptr, 10) != newest) {
            crash_env.RemoveFile(dbname + "/" + c);
          }
        }
        crash_env.PowerCut();
      });
  SyncPoint::GetInstance()->EnableProcessing();

  Status flush_status = db->FlushMemTable();
  EXPECT_FALSE(flush_status.ok()) << "manifest commit after the cut?";

  SyncPoint::GetInstance()->DisableProcessing();
  db.reset();
  SyncPoint::GetInstance()->Reset();

  // Reopen. Either the engine refuses to open, or it opens with the
  // acknowledged-durable keys missing — the model checker must flag it.
  crash_env.ResetState();
  bool caught = false;
  std::string why;
  Status s = DB::Open(options, dbname, &db);
  if (!s.ok()) {
    caught = true;
    why = "open failed: " + s.ToString();
  } else {
    KvMap recovered;
    ASSERT_TRUE(DumpDb(db.get(), &recovered).ok());
    caught = !model.CheckRecovered(recovered, &why);
    if (caught) {
      EXPECT_NE(why.find("lost"), std::string::npos) << why;
    }
  }
  EXPECT_TRUE(caught)
      << "early WAL delete went undetected — the harness has no teeth";

  db.reset();
  DestroyDB(options, dbname);
#endif  // PMBLADE_SYNC_POINTS
}

}  // namespace
}  // namespace test
}  // namespace pmblade
