// Concurrency tests: readers and scanners racing writers (with background
// flushes and compactions), plus the group-commit write pipeline itself —
// multi-writer stress, torn-group detection, fsync amortization and
// backpressure. Verifies the snapshot-consistency contract: every read
// observes some prefix-consistent state, iterators stay valid across
// version changes, and nothing crashes or corrupts.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/db.h"
#include "memtable/write_batch.h"
#include "util/random.h"

namespace pmblade {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_concurrency_test";
    options_ = Options();
    DestroyDB(options_, dbname_);
    options_.memtable_bytes = 32 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.cost.tau_m = 1 << 20;
    options_.cost.tau_t = 512 << 10;
    options_.partition_boundaries = {"key3", "key6"};
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    db_ = std::move(db);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(ConcurrencyTest, ReadersRaceWriterWithCompactions) {
  // The writer monotonically increases each key's version number; readers
  // must only ever observe monotonic versions (per their own reads) and
  // well-formed values.
  constexpr int kKeys = 200;
  constexpr int kWrites = 6000;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  auto reader_fn = [&](uint64_t seed) {
    Random rnd(seed);
    std::vector<uint64_t> last_seen(kKeys, 0);
    while (!stop.load(std::memory_order_acquire)) {
      int k = static_cast<int>(rnd.Uniform(kKeys));
      std::string value;
      Status s = db_->Get(ReadOptions(), "key" + std::to_string(k), &value);
      if (s.IsNotFound()) continue;
      if (!s.ok()) {
        ++reader_errors;
        continue;
      }
      uint64_t version = strtoull(value.c_str(), nullptr, 10);
      if (version < last_seen[k]) {
        ++reader_errors;  // went back in time!
      }
      last_seen[k] = version;
    }
  };

  auto scanner_fn = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        if (!prev.empty() && key <= prev) {
          ++reader_errors;  // out of order
        }
        prev = std::move(key);
      }
      if (!it->status().ok()) ++reader_errors;
    }
  };

  std::thread reader1(reader_fn, 11);
  std::thread reader2(reader_fn, 22);
  std::thread scanner(scanner_fn);

  Random rnd(33);
  for (int i = 1; i <= kWrites; ++i) {
    int k = static_cast<int>(rnd.Uniform(kKeys));
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(k),
                         std::to_string(i) + "-" + std::string(64, 'x'))
                    .ok());
    if (i % 2000 == 0) {
      ASSERT_TRUE(db_->CompactToLevel1(true).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  reader1.join();
  reader2.join();
  scanner.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

TEST_F(ConcurrencyTest, SnapshotReadersSeeFrozenState) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i), "frozen").ok());
  }
  uint64_t snap = db_->GetSnapshot();

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    Random rnd(7);
    ReadOptions at_snap;
    at_snap.snapshot = snap;
    while (!stop.load()) {
      std::string value;
      int k = static_cast<int>(rnd.Uniform(100));
      Status s = db_->Get(at_snap, "key" + std::to_string(k), &value);
      if (!s.ok() || value != "frozen") ++errors;
    }
  });

  // Overwrite everything (with flushes + internal compactions racing the
  // snapshot reader).
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), "key" + std::to_string(i), "thawed").ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    ASSERT_TRUE(db_->CompactLevel0().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  db_->ReleaseSnapshot(snap);

  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "key50", &value).ok());
  EXPECT_EQ(value, "thawed");
}

TEST_F(ConcurrencyTest, MultiWriterStress) {
  // N writers on disjoint key ranges, mixed sync/async. Every write is a
  // single-entry batch, so after the dust settles last_sequence must equal
  // the total write count exactly: sequences were assigned monotonically
  // with no loss and no duplication.
  constexpr int kWriters = 8;
  constexpr int kWritesPerThread = 500;
  std::atomic<int> write_errors{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        WriteOptions wopts;
        wopts.sync = (i % 7 == 0);  // mixed durability within groups
        std::string key =
            "w" + std::to_string(t) + "-k" + std::to_string(i);
        if (!db_->Put(wopts, key, "v" + std::to_string(i)).ok()) {
          ++write_errors;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_EQ(write_errors.load(), 0);

  // Sequence accounting: no lost or duplicated writes.
  uint64_t snap = db_->GetSnapshot();
  EXPECT_EQ(snap, static_cast<uint64_t>(kWriters * kWritesPerThread));
  db_->ReleaseSnapshot(snap);
  uint64_t group_writes = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.write.group_writes", &group_writes));
  EXPECT_EQ(group_writes, static_cast<uint64_t>(kWriters * kWritesPerThread));

  // Full readback: every write landed with its final value.
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kWritesPerThread; ++i) {
      std::string key = "w" + std::to_string(t) + "-k" + std::to_string(i);
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ(value, "v" + std::to_string(i)) << key;
    }
  }
}

TEST_F(ConcurrencyTest, NoTornGroups) {
  // Each writer repeatedly commits a two-key batch carrying the same
  // version. Readers pin a snapshot and read both keys at it: because
  // last_sequence_ is published only after the whole group is in the
  // memtable, the two versions must always match.
  constexpr int kWriters = 2;
  constexpr int kRounds = 1500;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      std::string ka = "torn-a-" + std::to_string(t);
      std::string kb = "torn-b-" + std::to_string(t);
      for (int i = 1; i <= kRounds; ++i) {
        WriteBatch batch;
        batch.Put(ka, std::to_string(i));
        batch.Put(kb, std::to_string(i));
        ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Random rnd(100 + r);
      while (!stop.load(std::memory_order_acquire)) {
        int t = static_cast<int>(rnd.Uniform(kWriters));
        uint64_t snap = db_->GetSnapshot();
        ReadOptions at_snap;
        at_snap.snapshot = snap;
        std::string va, vb;
        Status sa = db_->Get(at_snap, "torn-a-" + std::to_string(t), &va);
        Status sb = db_->Get(at_snap, "torn-b-" + std::to_string(t), &vb);
        if (sa.ok() != sb.ok() || (sa.ok() && va != vb)) {
          ++torn;  // observed half a commit group
        }
        db_->ReleaseSnapshot(snap);
      }
    });
  }

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(ConcurrencyTest, GroupCommitAmortizesSyncs) {
  // 8 writers all demanding durability: the leader syncs once per group, so
  // the engine must issue strictly fewer fsyncs than writes.
  constexpr int kWriters = 8;
  constexpr int kWritesPerThread = 300;

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      WriteOptions sync_opts;
      sync_opts.sync = true;
      for (int i = 0; i < kWritesPerThread; ++i) {
        std::string key =
            "sync" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(db_->Put(sync_opts, key, "payload").ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  constexpr uint64_t kTotal = kWriters * kWritesPerThread;
  uint64_t syncs = 0, groups = 0, group_writes = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.wal.syncs", &syncs));
  ASSERT_TRUE(db_->GetProperty("pmblade.write.groups", &groups));
  ASSERT_TRUE(db_->GetProperty("pmblade.write.group_writes", &group_writes));
  EXPECT_EQ(group_writes, kTotal);
  EXPECT_GT(syncs, 0u);
  EXPECT_LT(syncs, kTotal);  // at least one multi-member group synced once
  EXPECT_EQ(syncs, groups);  // every group was a sync group here
}

TEST(WriteBackpressureTest, SlowFlushTriggersSlowdownsAndStalls) {
  // A tiny memtable plus heavily slowed PM writes makes the background
  // flush the bottleneck: the writer must hit the soft slowdown and then
  // the hard stall, and every acknowledged write must still be readable.
  std::string dbname = ::testing::TempDir() + "pmblade_backpressure_test";
  Options options;
  DestroyDB(options, dbname);
  options.memtable_bytes = 8 << 10;
  // The WAL stays off the slowed PM device, so only the flush is slow.
  options.wal_in_pm = false;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = true;
  options.pm_latency.write_nanos_per_byte = 200.0;  // ~5 MB/s PM "device"
  options.pm_latency.persist_nanos = 100000;
  options.write_slowdown_nanos = 100000;  // keep the test fast
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWrites = 400;
  const std::string value(256, 'p');
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "bp" + std::to_string(i), value).ok());
  }

  uint64_t slowdowns = 0, stalls = 0, flushes = 0;
  ASSERT_TRUE(db->GetProperty("pmblade.write.slowdowns", &slowdowns));
  ASSERT_TRUE(db->GetProperty("pmblade.write.stalls", &stalls));
  ASSERT_TRUE(db->GetProperty("pmblade.flush.bg_flushes", &flushes));
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(slowdowns + stalls, 0u);

  for (int i = 0; i < kWrites; ++i) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), "bp" + std::to_string(i), &got).ok())
        << i;
    EXPECT_EQ(got, value) << i;
  }
  db.reset();
  DestroyDB(options, dbname);
}

TEST(WriteBackpressureTest, ReadersProgressDuringForegroundFlush) {
  // Regression test for the read-side lock diet: a FlushMemTable in flight
  // (slowed via injected PM latency) must not block concurrent Gets.
  std::string dbname = ::testing::TempDir() + "pmblade_flush_readers_test";
  Options options;
  DestroyDB(options, dbname);
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = true;
  options.pm_latency.write_nanos_per_byte = 500.0;
  options.pm_latency.persist_nanos = 200000;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kKeys = 300;
  const std::string value(512, 'r');
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "rk" + std::to_string(i), value).ok());
  }

  std::atomic<bool> flush_done{false};
  std::thread flusher([&] {
    ASSERT_TRUE(db->FlushMemTable().ok());
    flush_done.store(true, std::memory_order_release);
  });

  // Count reads that COMPLETED strictly while the flush was still running.
  int reads_during_flush = 0;
  Random rnd(55);
  while (!flush_done.load(std::memory_order_acquire)) {
    std::string got;
    int k = static_cast<int>(rnd.Uniform(kKeys));
    ASSERT_TRUE(db->Get(ReadOptions(), "rk" + std::to_string(k), &got).ok());
    if (!flush_done.load(std::memory_order_acquire)) ++reads_during_flush;
  }
  flusher.join();
  EXPECT_GT(reads_during_flush, 0);

  db.reset();
  DestroyDB(options, dbname);
}

TEST_F(ConcurrencyTest, IteratorSeesOneAtomicVersionUnderChurn) {
  // A writer thread updates EVERY key to the same version in one atomic
  // WriteBatch, over and over (with flushes and compactions triggered by the
  // tiny fixture memtable). Any iterator must therefore observe a single
  // uniform version across the whole keyspace: mixed versions in one scan
  // would mean the iterator's snapshot cut through a batch or drifted across
  // a version change.
  constexpr int kKeys = 60;
  constexpr int kRounds = 150;
  auto key_at = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };

  {
    WriteBatch seed;
    for (int i = 0; i < kKeys; ++i) seed.Put(key_at(i), "1");
    ASSERT_TRUE(db_->Write(WriteOptions(), &seed).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> scan_errors{0};
  std::thread writer([&] {
    for (int v = 2; v <= kRounds && !stop.load(std::memory_order_acquire);
         ++v) {
      WriteBatch batch;
      const std::string version = std::to_string(v);
      for (int i = 0; i < kKeys; ++i) batch.Put(key_at(i), version);
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  while (!stop.load(std::memory_order_acquire)) {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    std::string uniform;
    int seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const std::string value = it->value().ToString();
      if (seen == 0) {
        uniform = value;
      } else if (value != uniform) {
        ++scan_errors;  // torn batch or drifting snapshot
      }
      ++seen;
    }
    if (!it->status().ok() || seen != kKeys) ++scan_errors;
  }
  writer.join();
  EXPECT_EQ(scan_errors.load(), 0);
}

TEST_F(ConcurrencyTest, ChunkedScanAtSnapshotIgnoresLaterWrites) {
  // SCAN-style paging: every page opens a FRESH iterator pinned to the same
  // snapshot and Seeks to the cursor (exactly what the RESP server's SCAN
  // does). While pages are being fetched, writers overwrite the existing
  // keys and wedge brand-new keys between them; the union of the pages must
  // still be exactly the snapshot's keyspace and values.
  constexpr int kKeys = 100;
  auto key_at = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_at(i), "frozen").ok());
  }
  const uint64_t snap = db_->GetSnapshot();

  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  std::thread writer([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++round;
      rounds.store(round, std::memory_order_release);
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(db_->Put(WriteOptions(), key_at(i), "thawed").ok());
        // A key that sorts BETWEEN existing keys, born after the snapshot.
        ASSERT_TRUE(db_->Put(WriteOptions(),
                             key_at(i) + "-intruder" + std::to_string(round),
                             "new")
                        .ok());
      }
      if (round % 3 == 0) ASSERT_TRUE(db_->FlushMemTable().ok());
    }
  });

  // Keep paging until the writer has demonstrably churned the keyspace
  // underneath us at least a few times (flushes included).
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  for (int repeat = 0;
       repeat < 20 || rounds.load(std::memory_order_acquire) < 4;
       ++repeat) {
    ASSERT_LT(repeat, 10000) << "writer thread made no progress";
    std::vector<std::string> keys;
    std::string cursor;  // empty = start from the beginning
    while (true) {
      std::unique_ptr<Iterator> it(db_->NewIterator(at_snap));
      if (cursor.empty()) {
        it->SeekToFirst();
      } else {
        it->Seek(cursor);
      }
      int in_page = 0;
      for (; it->Valid() && in_page < 9; it->Next(), ++in_page) {
        keys.push_back(it->key().ToString());
        ASSERT_EQ(it->value().ToString(), "frozen") << keys.back();
      }
      ASSERT_TRUE(it->status().ok());
      if (!it->Valid() && in_page < 9) break;
      cursor = keys.back() + std::string(1, '\0');  // exclusive successor
    }
    ASSERT_EQ(keys.size(), static_cast<size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_EQ(keys[i], key_at(i));  // ordered, no dup, no intruder
    }
  }

  stop.store(true, std::memory_order_release);
  writer.join();
  db_->ReleaseSnapshot(snap);
}

TEST_F(ConcurrencyTest, IteratorSurvivesFlushAndCompactionMidScan) {
  // An open iterator must keep returning its pinned version even when the
  // tables it is reading get flushed, compacted and superseded mid-scan.
  constexpr int kKeys = 80;
  auto key_at = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_at(i), "before").ok());
  }

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  int seen = 0;
  for (; it->Valid() && seen < kKeys / 2; it->Next(), ++seen) {
    ASSERT_EQ(it->value().ToString(), "before");
  }

  // Rip the ground out from under the iterator.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_at(i), "after").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());

  for (; it->Valid(); it->Next(), ++seen) {
    ASSERT_EQ(it->value().ToString(), "before") << it->key().ToString();
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(seen, kKeys);
  it.reset();

  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), key_at(0), &value).ok());
  EXPECT_EQ(value, "after");
}

}  // namespace
}  // namespace pmblade
