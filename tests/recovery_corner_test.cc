// Recovery corner cases: a final WAL record cut mid-write, a manifest whose
// replay floor names a log that no longer exists, reopen-after-reopen
// idempotence, and the WAL-file-number reuse hazard after a crash that left
// the manifest's next_file_number stale.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/crash_env.h"
#include "tests/test_model.h"
#include "util/sync_point.h"

namespace pmblade {
namespace test {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

Options BaseOptions() {
  Options options;
  options.env = PosixEnv();
  options.memtable_bytes = 32 << 10;
  options.pm_pool_capacity = 32 << 20;
  options.pm_latency.inject_latency = false;
  return options;
}

std::vector<std::string> WalFiles(Env* env, const std::string& dbname) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dbname, &children).ok());
  std::vector<std::string> wals;
  for (const auto& c : children) {
    if (c.size() > 8 && c.compare(0, 4, "wal-") == 0) wals.push_back(c);
  }
  return wals;
}

TEST(RecoveryCornerTest, TruncatedFinalWalRecordDropsOnlyThatRecord) {
  const std::string dbname =
      ::testing::TempDir() + "pmblade_corner_truncated_wal";
  Options options = BaseOptions();
  options.wal_in_pm = false;  // the test truncates the log file
  DestroyDB(options, dbname);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  WriteOptions sync_opts;
  sync_opts.sync = true;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Put(sync_opts, Key(i), "value" + std::to_string(i)).ok());
  }
  db.reset();

  // Chop a few bytes off the live log: the final record's checksum no
  // longer covers its payload, exactly as if power failed mid-write.
  std::vector<std::string> wals = WalFiles(options.env, dbname);
  ASSERT_FALSE(wals.empty());
  std::string last = dbname + "/" + wals.back();
  uint64_t size = 0;
  ASSERT_TRUE(options.env->GetFileSize(last, &size).ok());
  ASSERT_GT(size, 4u);
  ASSERT_EQ(::truncate(last.c_str(), static_cast<off_t>(size - 4)), 0);

  // Recovery must drop ONLY the damaged final record and open cleanly.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
  }
  EXPECT_TRUE(db->Get(ReadOptions(), Key(9), &value).IsNotFound());

  // And the recovered DB keeps working.
  ASSERT_TRUE(db->Put(sync_opts, Key(9), "rewritten").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_TRUE(db->Get(ReadOptions(), Key(9), &value).ok());
  EXPECT_EQ(value, "rewritten");
  db.reset();
  DestroyDB(options, dbname);
}

TEST(RecoveryCornerTest, ManifestPointingAtDeletedWalStillOpens) {
  const std::string dbname = ::testing::TempDir() + "pmblade_corner_no_wal";
  Options options = BaseOptions();
  options.wal_in_pm = false;  // the test deletes the log files
  DestroyDB(options, dbname);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "flushed", "safe").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  db.reset();

  // Delete every log. The manifest's replay floor now names a WAL that does
  // not exist — recovery must treat the missing log as empty (its contents
  // were flushed) rather than refuse to open.
  for (const auto& wal : WalFiles(options.env, dbname)) {
    ASSERT_TRUE(options.env->RemoveFile(dbname + "/" + wal).ok());
  }

  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "flushed", &value).ok());
  EXPECT_EQ(value, "safe");

  WriteOptions sync_opts;
  sync_opts.sync = true;
  ASSERT_TRUE(db->Put(sync_opts, "after", "reopen").ok());
  db.reset();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), "after", &value).ok());
  db.reset();
  DestroyDB(options, dbname);
}

TEST(RecoveryCornerTest, ReopenAfterReopenIsIdempotent) {
  const std::string dbname = ::testing::TempDir() + "pmblade_corner_reopen";
  Options options = BaseOptions();
  DestroyDB(options, dbname);

  KvMap expected = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  for (const auto& kv : expected) {
    ASSERT_TRUE(db->Put(WriteOptions(), kv.first, kv.second).ok());
  }
  db.reset();

  // Replaying the same logs on every reopen must be idempotent: no lost
  // keys, no phantom keys, no double-application.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok()) << "round " << round;
    KvMap recovered;
    ASSERT_TRUE(DumpDb(db.get(), &recovered).ok());
    EXPECT_EQ(recovered, expected) << "round " << round;
    db.reset();
  }

  // Same once a flush has moved the data into level-0 tables.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  db.reset();
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    KvMap recovered;
    ASSERT_TRUE(DumpDb(db.get(), &recovered).ok());
    EXPECT_EQ(recovered, expected) << "flushed round " << round;
    db.reset();
  }
  DestroyDB(options, dbname);
}

#ifdef PMBLADE_SYNC_POINTS

// Deterministic reproduction of the WAL-number reuse hazard: crash after a
// rotation but before the flush commits the manifest, so the on-disk
// next_file_number is STALE — at or below the rotated-to log's number. The
// recovering Init must bump its allocator past every replayed live log;
// allocating from the stale counter would hand the new WAL an existing
// log's number and O_TRUNC acknowledged-durable data away. (The randomized
// harness can hit this window too, but only on lucky seeds — this pins it.)
TEST(RecoveryCornerTest, RecoveryDoesNotReuseLiveWalNumbers) {
  const std::string dbname = ::testing::TempDir() + "pmblade_corner_wal_reuse";
  CrashEnv crash_env(PosixEnv(), 7);
  Options options = BaseOptions();
  options.env = &crash_env;
  options.raw_env = &crash_env;
  options.memtable_bytes = 16 << 10;
  // SSD level-0: a flush racing teardown dies instantly on the dead env
  // instead of leaving tables in the PM pool.
  options.l0_layout = L0Layout::kSstable;
  DestroyDB(options, dbname);

  KvMap expected;
  WriteOptions sync_opts;
  sync_opts.sync = true;

  // Phase 1: fill past the memtable limit so a rotation fires, while the
  // flush is held at its first sync point — the manifest commit that would
  // refresh next_file_number never happens. The tail writes after the
  // rotation land in the rotated-to log, acknowledged and synced.
  auto* sp = SyncPoint::GetInstance();
  std::atomic<bool> rotated{false};
  sp->LoadDependency(
      {{"RecoveryCornerTest::Never", "DBImpl::BackgroundFlush:Start"}});
  sp->SetCallBack("DBImpl::SwitchMemTable:AfterNewWal",
                  [&](void*) { rotated.store(true); });
  sp->EnableProcessing();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  const std::string big(1024, 'x');
  for (int i = 0; i < 40 && !rotated.load(); ++i) {
    ASSERT_TRUE(db->Put(sync_opts, Key(i), big).ok());
    expected[Key(i)] = big;
  }
  ASSERT_TRUE(rotated.load()) << "workload never rotated the memtable";
  for (int i = 0; i < 3; ++i) {
    std::string key = "tail" + std::to_string(i);
    ASSERT_TRUE(db->Put(sync_opts, key, "tail-value").ok());
    expected[key] = "tail-value";
  }
  crash_env.PowerCut();
  sp->DisableProcessing();
  db.reset();
  sp->Reset();

  // Phase 2: recover (replaying the rotated-to log) and crash again before
  // any flush. With a reused number, Init itself already truncated that log
  // and the tail keys now exist only in DRAM — gone after this cut.
  crash_env.ResetState();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  crash_env.PowerCut();
  db.reset();

  // Phase 3: every acknowledged key must still be there.
  crash_env.ResetState();
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  KvMap recovered;
  ASSERT_TRUE(DumpDb(db.get(), &recovered).ok());
  EXPECT_EQ(recovered, expected);
  db.reset();
  DestroyDB(options, dbname);
}

#endif  // PMBLADE_SYNC_POINTS

}  // namespace
}  // namespace test
}  // namespace pmblade
