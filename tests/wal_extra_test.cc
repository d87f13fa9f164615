// Additional WAL and edge-case coverage: appending to an existing log
// (writer resumed mid-block), records exactly at block boundaries, the
// writer's one-Append-per-call contract and its byte framing, the device
// writes one commit costs, where a cross-shard commit's marker lands in
// the WAL (and what a power cut before it lands leaves), the write-path
// sync points' hit counts and the trace of each commit-group fsync, the PM
// WAL's recovery sweeps, extent reuse and full-pool behaviour, and PM-table
// geometry extremes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/sharded_db.h"
#include "env/crash_env.h"
#include "env/env.h"
#include "env/sim_env.h"
#include "env/ssd_model.h"
#include "memtable/txn_record.h"
#include "memtable/wal.h"
#include "memtable/write_batch.h"
#include "pm/pm_log.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table_builder.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/sync_point.h"

namespace pmblade {
namespace {

class WalExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fname_ = ::testing::TempDir() + "pmblade_wal_extra.log";
    PosixEnv()->RemoveFile(fname_);
  }
  void TearDown() override { PosixEnv()->RemoveFile(fname_); }

  std::vector<std::string> Replay() {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(PosixEnv()->NewSequentialFile(fname_, &file).ok());
    wal::Reader reader(file.get(), nullptr);
    std::vector<std::string> records;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      records.push_back(record.ToString());
    }
    return records;
  }

  std::string fname_;
};

TEST_F(WalExtraTest, RecordExactlyFillingBlockTail) {
  // First record sized so the second lands exactly at the block boundary
  // padding path (leftover < kHeaderSize).
  size_t first = wal::kBlockSize - wal::kHeaderSize * 2 - 3;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(PosixEnv()->NewWritableFile(fname_, &file).ok());
    wal::Writer writer(file.get());
    ASSERT_TRUE(writer.AddRecord(std::string(first, 'a')).ok());
    ASSERT_TRUE(writer.AddRecord("tail-record").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto records = Replay();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].size(), first);
  EXPECT_EQ(records[1], "tail-record");
}

TEST_F(WalExtraTest, ZeroAndOneBytePayloads) {
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(PosixEnv()->NewWritableFile(fname_, &file).ok());
    wal::Writer writer(file.get());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(writer.AddRecord(i % 2 == 0 ? "" : "x").ok());
    }
    ASSERT_TRUE(file->Close().ok());
  }
  auto records = Replay();
  ASSERT_EQ(records.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(records[i], i % 2 == 0 ? "" : "x");
  }
}

// ---------------------------------------------------------------------------
// Writer: one Append + one Flush per call, bytes in the documented framing
// ---------------------------------------------------------------------------

// Keeps every Append in memory and counts Appends and Flushes. A failing
// Append takes no bytes.
class CountingFile final : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    if (fail_appends) return Status::IOError("injected append fault");
    appends.emplace_back(data.data(), data.size());
    contents.append(data.data(), data.size());
    return Status::OK();
  }
  Status Flush() override {
    ++flushes;
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

  bool fail_appends = false;
  std::vector<std::string> appends;
  int flushes = 0;
  std::string contents;
};

// Reads a log image from memory.
class StringSource final : public SequentialFile {
 public:
  explicit StringSource(std::string contents)
      : contents_(std::move(contents)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    n = std::min(n, contents_.size() - pos_);
    std::memcpy(scratch, contents_.data() + pos_, n);
    pos_ += n;
    *result = Slice(scratch, n);
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    pos_ += std::min<size_t>(n, contents_.size() - pos_);
    return Status::OK();
  }

 private:
  std::string contents_;
  size_t pos_ = 0;
};

// One physical record as the format documents it: masked crc32c over the
// type byte and the payload (4 bytes, little-endian), the payload length
// (2 bytes, little-endian), the type (1 byte), then the payload.
std::string Frame(wal::RecordType type, const std::string& payload) {
  std::string typed(1, static_cast<char>(type));
  typed += payload;
  std::string out;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(typed.data(), typed.size())));
  out.push_back(static_cast<char>(payload.size() & 0xff));
  out.push_back(static_cast<char>(payload.size() >> 8));
  out += typed;
  return out;
}

std::vector<std::string> ReplayImage(const std::string& image) {
  StringSource source(image);
  wal::Reader reader(&source, nullptr);
  std::vector<std::string> records;
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    records.push_back(record.ToString());
  }
  return records;
}

std::string Filler(size_t n, char seed) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(seed + i % 61);
  return s;
}

TEST(WalWriterTest, SmallRecordIsOneFramedAppend) {
  CountingFile file;
  wal::Writer writer(&file);
  ASSERT_TRUE(writer.AddRecord("abc").ok());
  ASSERT_EQ(file.appends.size(), 1u);
  EXPECT_EQ(file.flushes, 1);
  EXPECT_EQ(file.contents, Frame(wal::kFullType, "abc"));
  // Header layout spelled out byte by byte: length 3, type kFullType.
  ASSERT_EQ(file.contents.size(), wal::kHeaderSize + 3);
  EXPECT_EQ(file.contents[4], 3);
  EXPECT_EQ(file.contents[5], 0);
  EXPECT_EQ(file.contents[6], wal::kFullType);
  EXPECT_EQ(ReplayImage(file.contents), std::vector<std::string>{"abc"});
}

TEST(WalWriterTest, RecordSpanningBlockBoundaryIsOneAppend) {
  CountingFile file;
  wal::Writer writer(&file);
  const std::string record = Filler(wal::kBlockSize + 100, 'a');
  ASSERT_TRUE(writer.AddRecord(record).ok());
  ASSERT_EQ(file.appends.size(), 1u);
  EXPECT_EQ(file.flushes, 1);

  const size_t first = wal::kBlockSize - wal::kHeaderSize;
  EXPECT_EQ(file.contents, Frame(wal::kFirstType, record.substr(0, first)) +
                               Frame(wal::kLastType, record.substr(first)));
  EXPECT_EQ(ReplayImage(file.contents), std::vector<std::string>{record});
}

TEST(WalWriterTest, BlockTailPaddingLandsInTheSameAppend) {
  CountingFile file;
  wal::Writer writer(&file);
  // Leaves 3 bytes in the block: too few for a header.
  const std::string first = Filler(wal::kBlockSize - wal::kHeaderSize - 3, 'p');
  ASSERT_TRUE(writer.AddRecord(first).ok());
  ASSERT_TRUE(writer.AddRecord("tail").ok());
  ASSERT_EQ(file.appends.size(), 2u);
  EXPECT_EQ(file.flushes, 2);
  EXPECT_EQ(file.appends[1],
            std::string(3, '\0') + Frame(wal::kFullType, "tail"));
  EXPECT_EQ(file.contents.size(), wal::kBlockSize + wal::kHeaderSize + 4);
  EXPECT_EQ(ReplayImage(file.contents),
            (std::vector<std::string>{first, "tail"}));
}

TEST(WalWriterTest, AddRecordsIsOneAppendWithAddRecordBytes) {
  // x ends at block offset 20007; y spans first, middle and last fragments
  // and ends at 20028 of the third block; "" ends at 20035; z leaves 3
  // bytes, so "last" follows zero padding.
  const std::vector<std::string> records = {
      Filler(20000, 'x'), Filler(2 * wal::kBlockSize, 'y'), "",
      Filler(wal::kBlockSize - 20035 - wal::kHeaderSize - 3, 'z'), "last"};
  std::vector<Slice> slices(records.begin(), records.end());

  CountingFile batched;
  wal::Writer batched_writer(&batched);
  ASSERT_TRUE(batched_writer.AddRecords(slices.data(), slices.size()).ok());
  ASSERT_EQ(batched.appends.size(), 1u);
  EXPECT_EQ(batched.flushes, 1);

  CountingFile single;
  wal::Writer single_writer(&single);
  for (const std::string& r : records) {
    ASSERT_TRUE(single_writer.AddRecord(r).ok());
  }
  EXPECT_EQ(single.appends.size(), records.size());
  EXPECT_EQ(single.appends.back(),
            std::string(3, '\0') + Frame(wal::kFullType, "last"));
  EXPECT_EQ(batched.contents, single.contents);
  EXPECT_EQ(ReplayImage(batched.contents), records);

  // Both writers ended at the same block offset: the next record frames
  // identically.
  ASSERT_TRUE(batched_writer.AddRecord("next").ok());
  ASSERT_TRUE(single_writer.AddRecord("next").ok());
  EXPECT_EQ(batched.contents, single.contents);
  EXPECT_EQ(batched.appends.size(), 2u);
}

TEST(WalWriterTest, FailedAppendKeepsTheFraming) {
  CountingFile file;
  wal::Writer writer(&file);
  ASSERT_TRUE(writer.AddRecord(Filler(wal::kBlockSize - 100, 'f')).ok());
  file.fail_appends = true;
  EXPECT_TRUE(writer.AddRecord(Filler(500, 'g')).IsIOError());
  EXPECT_EQ(file.flushes, 1);  // no Flush after a failed Append
  file.fail_appends = false;
  ASSERT_TRUE(writer.AddRecord(Filler(500, 'h')).ok());
  EXPECT_EQ(ReplayImage(file.contents),
            (std::vector<std::string>{Filler(wal::kBlockSize - 100, 'f'),
                                      Filler(500, 'h')}));
}

// ---------------------------------------------------------------------------
// Device writes per commit, counted by the SSD model (no wall clock)
// ---------------------------------------------------------------------------

class WalDeviceWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_wal_device_writes";
    SsdModelOptions mopts;
    mopts.inject_latency = false;
    model_.reset(new SsdModel(mopts));
    env_.reset(new SimEnv(PosixEnv(), model_.get()));
    options_.env = env_.get();
    options_.ssd_model = model_.get();
    options_.wal_in_pm = false;  // the PmWal cases below turn it on
    options_.memtable_bytes = 8 << 20;  // nothing rotates or flushes
    options_.pm_pool_capacity = 8 << 20;
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }
  void Open() { ASSERT_TRUE(DB::Open(options_, dbname_, &db_).ok()); }

  uint64_t PmPersists() {
    uint64_t persists = 0;
    EXPECT_TRUE(db_->GetProperty("pmblade.pm.persists", &persists));
    return persists;
  }

  /// A key of `round` that routes to `shard` of two.
  static std::string KeyForShard(int round, uint32_t shard) {
    for (int i = 0;; ++i) {
      std::string key =
          "r" + std::to_string(round) + "-" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, 2) == shard) return key;
    }
  }

  std::string dbname_;
  std::unique_ptr<SsdModel> model_;
  std::unique_ptr<SimEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(WalDeviceWriteTest, PutAndBatchAreOneDeviceWriteEach) {
  Open();
  for (int i = 0; i < 10; ++i) {
    const uint64_t before = model_->writes();
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    EXPECT_EQ(model_->writes() - before, 1u) << "put " << i;
  }
  // A batch larger than a WAL block still lands as one device write.
  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("b" + std::to_string(i), std::string(300, 'v'));
  }
  const uint64_t before = model_->writes();
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(model_->writes() - before, 1u);
}

TEST_F(WalDeviceWriteTest, CrossShardBatchIsOneWritePerParticipant) {
  options_.num_shards = 2;
  Open();
  std::string shard0_key;
  for (int round = 0; round < 5; ++round) {
    WriteBatch batch;
    for (uint32_t shard = 0; shard < 2; ++shard) {
      for (int i = 0;; ++i) {
        std::string key = "r" + std::to_string(round) + "-" +
                          std::to_string(i);
        if (ShardedDB::ShardOfKey(key, 2) == shard) {
          batch.Put(key, "v");
          if (shard == 0) shard0_key = key;
          break;
        }
      }
    }
    const uint64_t before = model_->writes();
    ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    // Per participant: one prepare append, which also carries the previous
    // round's commit marker. The commit itself writes nothing.
    EXPECT_EQ(model_->writes() - before, 2u) << "round " << round;
  }
  // The next write on a participant carries the last marker in its own
  // append.
  const uint64_t before = model_->writes();
  ASSERT_TRUE(db_->Put(WriteOptions(), shard0_key, "w").ok());
  EXPECT_EQ(model_->writes() - before, 1u);
}

// With the WAL in PM an acknowledged write touches the SSD not at all; it
// costs two PM persists (the record's bytes, then the segment's valid
// length), plus three when it opens a new log segment.
TEST_F(WalDeviceWriteTest, PmWalPutIsTwoPersistsAndNoDeviceWrite) {
  options_.wal_in_pm = true;
  Open();
  const uint64_t opened_writes = model_->writes();  // Open's manifest
  ASSERT_TRUE(db_->Put(WriteOptions(), "warm", "v").ok());  // first segment
  for (int i = 0; i < 10; ++i) {
    const uint64_t writes = model_->writes();
    const uint64_t persists = PmPersists();
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    EXPECT_EQ(model_->writes() - writes, 0u) << "put " << i;
    EXPECT_EQ(PmPersists() - persists, 2u) << "put " << i;
  }
  // A sync write adds nothing: the append is durable when it returns.
  WriteOptions sync;
  sync.sync = true;
  const uint64_t persists = PmPersists();
  ASSERT_TRUE(db_->Put(sync, "synced", "v").ok());
  EXPECT_EQ(PmPersists() - persists, 2u);

  // A batch spanning log segments: a data and a length persist for each
  // segment it touches (the open one plus each new one), and three more
  // for each segment it opens.
  WriteBatch batch;
  for (int i = 0; i < 400; ++i) {
    batch.Put("b" + std::to_string(i), std::string(300, 'v'));
  }
  uint64_t log_bytes = 0, log_bytes_after = 0;
  ASSERT_TRUE(db_->GetProperty("pmblade.wal.pm_bytes", &log_bytes));
  const uint64_t before = PmPersists();
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db_->GetProperty("pmblade.wal.pm_bytes", &log_bytes_after));
  const uint64_t opened = (log_bytes_after - log_bytes) / kPmLogSegmentBytes;
  EXPECT_GE(opened, 1u);
  EXPECT_EQ(PmPersists() - before, 2 * (opened + 1) + 3 * opened);
  EXPECT_EQ(model_->writes(), opened_writes);
}

TEST_F(WalDeviceWriteTest, PmWalCrossShardBatchWritesNothingToSsd) {
  options_.wal_in_pm = true;
  options_.num_shards = 2;
  Open();
  // The always-synced prepares included: nothing after Open's manifests.
  const uint64_t opened_bytes = model_->bytes_written();
  for (int round = 0; round < 5; ++round) {
    WriteBatch batch;
    batch.Put(KeyForShard(round, 0), "v");
    batch.Put(KeyForShard(round, 1), "v");
    const uint64_t before = model_->writes();
    ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    EXPECT_EQ(model_->writes() - before, 0u) << "round " << round;
  }
  EXPECT_EQ(model_->bytes_written(), opened_bytes);
}

// Every commit-group fsync is traced, a participant's prepare fsync
// included: one wal_sync event per shard, covering its one prepare.
TEST_F(WalDeviceWriteTest, CrossShardPrepareFsyncIsTraced) {
  options_.num_shards = 2;
  Open();
  WriteBatch batch;
  batch.Put(KeyForShard(0, 0), "v");
  batch.Put(KeyForShard(0, 1), "v");
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db_->Write(sync, &batch).ok());

  std::string dump;
  ASSERT_TRUE(db_->GetProperty("pmblade.trace.json", &dump));
  std::stringstream lines(dump);
  std::string line;
  int syncs = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"wal_sync\"") == std::string::npos) continue;
    ++syncs;
    EXPECT_NE(line.find("\"writes\":1"), std::string::npos) << line;
    EXPECT_NE(line.find("\"bytes\":"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"bytes\":0"), std::string::npos) << line;
    EXPECT_NE(line.find("\"duration_nanos\":"), std::string::npos) << line;
  }
  EXPECT_EQ(syncs, 2) << dump;
}

#ifdef PMBLADE_SYNC_POINTS
// The crash harnesses arm their cuts by counting hits on these points, so
// each one's hit count for a fixed sequence of operations is pinned here,
// on both WAL devices.
TEST_F(WalDeviceWriteTest, WritePathSyncPointCensus) {
  static const char* const kPoints[] = {
      "DBImpl::Write:AfterWalAppend",       "DBImpl::Write:AfterWalSync",
      "DBImpl::Write:BeforePublish",        "DBImpl::PrepareTxn:AfterSync",
      "DBImpl::CommitTxn:AfterAppend",      "DBImpl::CommitTxn:BeforePublish",
      "DBImpl::NewWal:OldWalSynced",        "DBImpl::NewWal:TxnRecordsCarried",
      "DBImpl::SwitchMemTable:AfterNewWal",
  };
  const std::map<std::string, int> expected = {
      {"DBImpl::Write:AfterWalAppend", 2},
      {"DBImpl::Write:AfterWalSync", 1},
      {"DBImpl::Write:BeforePublish", 2},
      {"DBImpl::PrepareTxn:AfterSync", 4},
      {"DBImpl::CommitTxn:AfterAppend", 2},
      {"DBImpl::CommitTxn:BeforePublish", 4},
      {"DBImpl::NewWal:OldWalSynced", 2},
      {"DBImpl::NewWal:TxnRecordsCarried", 2},
      {"DBImpl::SwitchMemTable:AfterNewWal", 2},
  };
  options_.num_shards = 2;
  for (bool wal_in_pm : {false, true}) {
    SCOPED_TRACE(wal_in_pm ? "pm wal" : "ssd wal");
    db_.reset();
    DestroyDB(options_, dbname_);
    options_.wal_in_pm = wal_in_pm;
    Open();

    std::mutex mu;
    std::map<std::string, int> hits;
    for (const char* point : kPoints) {
      hits[point] = 0;
      SyncPoint::GetInstance()->SetCallBack(point, [&mu, &hits, point](void*) {
        std::lock_guard<std::mutex> lock(mu);
        ++hits[point];
      });
    }
    SyncPoint::GetInstance()->EnableProcessing();

    WriteOptions sync;
    sync.sync = true;
    ASSERT_TRUE(db_->Put(WriteOptions(), KeyForShard(0, 0), "v").ok());
    ASSERT_TRUE(db_->Put(sync, KeyForShard(1, 0), "v").ok());
    for (int round = 2; round < 4; ++round) {
      WriteBatch batch;
      batch.Put(KeyForShard(round, 0), "v");
      batch.Put(KeyForShard(round, 1), "v");
      ASSERT_TRUE(
          db_->Write(round == 2 ? WriteOptions() : sync, &batch).ok());
    }
    uint64_t retained = 0;
    ASSERT_TRUE(db_->GetProperty("pmblade.txn.retained", &retained));
    EXPECT_EQ(retained, 2u);  // the last batch's fences: carried at rotation
    ASSERT_TRUE(db_->FlushMemTable().ok());

    SyncPoint::GetInstance()->DisableProcessing();
    SyncPoint::GetInstance()->Reset();
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(hits, expected);
  }
}
#endif  // PMBLADE_SYNC_POINTS

/// Two shards over a CrashEnv: where a cross-shard commit's kCommit marker
/// lands, and what a power cut before it lands leaves behind.
class CommitMarkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_commit_marker";
    options_.env = &env_;
    options_.raw_env = &env_;
    // The test reads the log files and cuts power through the Env.
    options_.wal_in_pm = false;
    options_.num_shards = 2;
    options_.memtable_bytes = 8 << 20;  // nothing rotates or flushes
    options_.pm_pool_capacity = 8 << 20;
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }
  void TearDown() override {
    db_.reset();
    env_.ResetState();
    DestroyDB(options_, dbname_);
  }
  void Open() {
    db_.reset();
    Status s = DB::Open(options_, dbname_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  static std::string KeyForShard(uint32_t shard, int salt) {
    for (int i = 0;; ++i) {
      std::string key = "m" + std::to_string(salt) + "-" + std::to_string(i);
      if (ShardedDB::ShardOfKey(key, 2) == shard) return key;
    }
  }
  /// A batch with one key on each shard, all set to `value`.
  static WriteBatch CrossShardBatch(int salt, const std::string& value) {
    WriteBatch batch;
    for (uint32_t shard = 0; shard < 2; ++shard) {
      batch.Put(KeyForShard(shard, salt), value);
    }
    return batch;
  }

  /// Every record in `shard`'s WAL files, in file-name (= creation) order.
  std::vector<std::string> WalRecords(uint32_t shard) {
    const std::string dir = ShardedDB::ShardDirName(dbname_, shard);
    std::vector<std::string> children;
    EXPECT_TRUE(PosixEnv()->GetChildren(dir, &children).ok());
    std::sort(children.begin(), children.end());
    std::vector<std::string> records;
    for (const std::string& child : children) {
      if (child.compare(0, 4, "wal-") != 0) continue;
      std::unique_ptr<SequentialFile> file;
      EXPECT_TRUE(PosixEnv()->NewSequentialFile(dir + "/" + child, &file).ok());
      wal::Reader reader(file.get(), nullptr);
      Slice record;
      std::string scratch;
      while (reader.ReadRecord(&record, &scratch)) {
        records.push_back(record.ToString());
      }
    }
    return records;
  }

  uint64_t Property(const std::string& name) {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    return s.ok() ? value : s.ToString();
  }

  CrashEnv env_{PosixEnv()};
  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(CommitMarkerTest, MarkerGoesOutRightBeforeTheShardsNextWrite) {
  Open();
  WriteBatch batch = CrossShardBatch(1, "txn");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  const std::string key0 = KeyForShard(0, 1);
  ASSERT_TRUE(db_->Put(WriteOptions(), key0, "after").ok());

  // Shard 0: prepare, then the marker, then the Put's batch.
  std::vector<std::string> records = WalRecords(0);
  ASSERT_EQ(records.size(), 3u);
  TxnRecord txn;
  ASSERT_TRUE(DecodeTxnRecord(records[0], &txn).ok());
  EXPECT_EQ(txn.type, TxnRecordType::kPrepare);
  ASSERT_TRUE(DecodeTxnRecord(records[1], &txn).ok());
  EXPECT_EQ(txn.type, TxnRecordType::kCommit);
  ASSERT_FALSE(IsTxnRecord(records[2]));
  WriteBatch put;
  put.SetContentsFrom(records[2]);
  EXPECT_EQ(put.Sequence(), txn.base_seq + 1);  // log order = sequence order

  // Shard 1 wrote nothing since its prepare; close appends its marker.
  EXPECT_EQ(WalRecords(1).size(), 1u);
  db_.reset();
  records = WalRecords(1);
  ASSERT_EQ(records.size(), 2u);
  ASSERT_TRUE(DecodeTxnRecord(records[1], &txn).ok());
  EXPECT_EQ(txn.type, TxnRecordType::kCommit);

  // A clean reopen replays both commits; nothing is in doubt.
  Open();
  EXPECT_EQ(Get(key0), "after");
  EXPECT_EQ(Get(KeyForShard(1, 1)), "txn");
  EXPECT_EQ(Property("pmblade.txn.in_doubt"), 0u);
}

TEST_F(CommitMarkerTest, PowerCutBeforeTheMarkerLandsStillCommits) {
  Open();
  WriteBatch batch = CrossShardBatch(2, "kept");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());  // acknowledged
  env_.PowerCut();  // before any other write: both markers are lost
  db_.reset();
  env_.ResetState();

  Open();
  EXPECT_EQ(Get(KeyForShard(0, 2)), "kept");
  EXPECT_EQ(Get(KeyForShard(1, 2)), "kept");
  EXPECT_EQ(Property("pmblade.txn.in_doubt"), 1u);
  EXPECT_EQ(Property("pmblade.txn.resolved_commit"), 1u);
}

TEST_F(CommitMarkerTest, FencesRetireOnceEveryMarkerIsSynced) {
  Open();
  WriteBatch batch = CrossShardBatch(3, "v");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  // One committed fence per participant, held until its marker is durable.
  EXPECT_EQ(Property("pmblade.txn.retained"), 2u);

  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db_->Put(sync, KeyForShard(0, 4), "s").ok());
  EXPECT_EQ(Property("pmblade.txn.retained"), 2u);  // shard 1 still pending
  ASSERT_TRUE(db_->Put(sync, KeyForShard(1, 4), "s").ok());
  EXPECT_EQ(Property("pmblade.txn.retained"), 0u);
}

TEST(PmTableGeometryTest, ExtremeGroupAndPrefixSettings) {
  std::string path = ::testing::TempDir() + "pmblade_geometry.pm";
  ::remove(path.c_str());
  PmPoolOptions popts;
  popts.capacity = 32 << 20;
  popts.latency.inject_latency = false;
  std::unique_ptr<PmPool> pool;
  ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());

  struct Geometry {
    uint32_t group_size;
    uint32_t prefix_width;
  };
  for (Geometry g : {Geometry{1, 1}, Geometry{2, 64}, Geometry{128, 4},
                     Geometry{16, 0} /* width 0 clamps to default */}) {
    PmTableOptions opts;
    opts.group_size = g.group_size;
    opts.prefix_width = g.prefix_width;
    PmTableBuilder builder(pool.get(), opts);
    for (int i = 0; i < 300; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "tbl|key%05d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, 9, kTypeValue);
      builder.Add(ikey, "value" + std::to_string(i));
    }
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok())
        << "g=" << g.group_size << " w=" << g.prefix_width;
    EXPECT_EQ(table->num_entries(), 300u);

    std::unique_ptr<Iterator> it(table->NewIterator());
    // Every key findable; full scan intact.
    for (int i = 0; i < 300; i += 37) {
      char key[32];
      snprintf(key, sizeof(key), "tbl|key%05d", i);
      std::string seek;
      AppendInternalKey(&seek, key, kMaxSequenceNumber, kValueTypeForSeek);
      it->Seek(seek);
      ASSERT_TRUE(it->Valid()) << key;
      EXPECT_EQ(ExtractUserKey(it->key()).ToString(), key);
    }
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
    EXPECT_EQ(count, 300);
    table->Destroy();
  }
  pool.reset();
  ::remove(path.c_str());
}

TEST(PmTableGeometryTest, LargeValuesAndEmptyValues) {
  std::string path = ::testing::TempDir() + "pmblade_values.pm";
  ::remove(path.c_str());
  PmPoolOptions popts;
  popts.capacity = 64 << 20;
  popts.latency.inject_latency = false;
  std::unique_ptr<PmPool> pool;
  ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());

  PmTableBuilder builder(pool.get(), PmTableOptions{});
  std::string huge(256 * 1024, 'H');
  std::string ikey;
  AppendInternalKey(&ikey, "t|empty", 5, kTypeValue);
  builder.Add(ikey, "");
  ikey.clear();
  AppendInternalKey(&ikey, "t|huge", 5, kTypeValue);
  builder.Add(ikey, huge);
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().size(), 0u);
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().size(), huge.size());
  EXPECT_EQ(it->value().ToString(), huge);
  pool.reset();
  ::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// The PM WAL (pm/pm_log.h): recovery sweeps, extent reuse, a full pool
// ---------------------------------------------------------------------------

class PmWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_pm_wal";
    options_.wal_in_pm = true;
    options_.pm_crash_sim = true;
    options_.memtable_bytes = 8 << 20;  // nothing rotates by size
    options_.pm_pool_capacity = 8 << 20;
    options_.pm_latency.inject_latency = false;
    DestroyDB(options_, dbname_);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }
  void Open() {
    db_.reset();
    Status s = DB::Open(options_, dbname_, &db_);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  /// Power cut: every word the pool never persisted reverts.
  void Crash() {
    static_cast<DBImpl*>(db_.get())->pm_pool()->SimulateCrash(7, 0.0);
    db_.reset();
  }
  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    return s.ok() ? value : s.ToString();
  }
  uint64_t LogBytes() {
    uint64_t bytes = 0;
    EXPECT_TRUE(db_->GetProperty("pmblade.wal.pm_bytes", &bytes));
    return bytes;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// The orphan sweep after a manifest read frees every pool object the
// manifest does not name. Log segments are never named there, so before
// the sweep skipped them a crash before the first flush lost every write.
TEST_F(PmWalTest, CrashBeforeAnyFlushKeepsEveryAckedWrite) {
  Open();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  Crash();
  Open();
  // A second life, so a log the sweep freed (its extent now reused by the
  // new log) cannot pass for one it kept.
  for (int i = 200; i < 300; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  Crash();
  Open();
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(Get("k" + std::to_string(i)), "v" + std::to_string(i)) << i;
  }
}

// The image a crash leaves before the first manifest commit lands: logs in
// the pool, no manifest. The fresh-DB path frees the pool's tables but
// replays its logs.
TEST_F(PmWalTest, CrashBeforeFirstManifestCommitKeepsEveryAckedWrite) {
  Open();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  Crash();
  ASSERT_TRUE(PosixEnv()->RemoveFile(dbname_ + "/MANIFEST").ok());
  Open();
  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  Crash();
  Open();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Get("k" + std::to_string(i)), "v") << i;
  }
  // The replayed logs are retired by the next flush like any other.
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(LogBytes(), 0u);
  Crash();
  Open();
  EXPECT_EQ(Get("k49"), "v");
}

TEST_F(PmWalTest, FlushFreesItsLog) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  EXPECT_EQ(LogBytes(), kPmLogSegmentBytes);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(LogBytes(), 0u);  // the next log has no segment yet
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "2").ok());
  db_.reset();
  Open();
  EXPECT_EQ(LogBytes(), kPmLogSegmentBytes);  // only the live log
  EXPECT_EQ(Get("a"), "1");
  EXPECT_EQ(Get("b"), "2");
}

#ifdef PMBLADE_SYNC_POINTS
// A crash between the flush's manifest commit and its log delete leaves a
// log below the replay floor; the next open frees it without replaying it.
TEST_F(PmWalTest, ReplayFreesLogsBelowTheFloor) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  PmPool* pool = static_cast<DBImpl*>(db_.get())->pm_pool();
  SyncPoint::GetInstance()->SetCallBack(
      "DBImpl::BackgroundFlush:ManifestCommitted",
      [pool](void*) { pool->SimulateCrash(3, 0.0); });
  SyncPoint::GetInstance()->EnableProcessing();
  db_->FlushMemTable();  // the log delete dies with the pool
  SyncPoint::GetInstance()->DisableProcessing();
  db_.reset();
  SyncPoint::GetInstance()->Reset();

  PmPoolOptions popts;
  popts.capacity = options_.pm_pool_capacity;
  popts.latency.inject_latency = false;
  {
    std::unique_ptr<PmPool> image;
    ASSERT_TRUE(PmPool::Open(dbname_ + "/pool.pm", popts, &image).ok());
    PmLogEnv logs(image.get(), PosixEnv(), /*create_in_pm=*/false);
    EXPECT_EQ(logs.SegmentBytes(), kPmLogSegmentBytes) << "log not left";
  }
  Open();
  EXPECT_EQ(LogBytes(), 0u);
  EXPECT_EQ(Get("a"), "1");  // from the flushed table
}
#endif  // PMBLADE_SYNC_POINTS

// Logs are created on the configured device but found on both, so a DB
// reopened with the other setting replays, then retires, every log.
TEST_F(PmWalTest, ReopenOnTheOtherWalDeviceReplaysEveryLog) {
  options_.pm_crash_sim = false;
  options_.wal_in_pm = false;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "on-ssd").ok());
  options_.wal_in_pm = true;
  Open();
  EXPECT_EQ(Get("a"), "on-ssd");
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "in-pm").ok());
  EXPECT_GT(LogBytes(), 0u);
  options_.wal_in_pm = false;
  Open();
  EXPECT_EQ(Get("a"), "on-ssd");
  EXPECT_EQ(Get("b"), "in-pm");
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(LogBytes(), 0u);  // the PM log is retired
  std::vector<std::string> children;
  ASSERT_TRUE(PosixEnv()->GetChildren(dbname_, &children).ok());
  size_t ssd_logs = 0;
  for (const std::string& child : children) {
    if (child.compare(0, 4, "wal-") == 0) ++ssd_logs;
  }
  EXPECT_EQ(ssd_logs, 1u);  // only the active log
  Open();
  EXPECT_EQ(Get("b"), "in-pm");
}

// A segment that reuses a freed log's extent still holds that log's
// records past its own valid length. Under a power cut that keeps every
// unpersisted word, replay must still see only the new log's records.
TEST(PmLogEnvTest, ReusedExtentNeverReplaysTheFreedLogsRecords) {
  const std::string path = ::testing::TempDir() + "pmblade_pm_log_reuse.pm";
  ::unlink(path.c_str());
  PmPoolOptions popts;
  popts.capacity = 1 << 20;
  popts.latency.inject_latency = false;
  popts.crash_sim = true;
  std::unique_ptr<PmPool> pool;
  ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());
  uint64_t old_offset = 0;
  {
    PmLogEnv env(pool.get(), PosixEnv(), /*create_in_pm=*/true);
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile("db/wal-000001.log", &file).ok());
    wal::Writer writer(file.get());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(writer.AddRecord("old-record-" + std::to_string(i)).ok());
    }
    old_offset = pool->ListObjects().at(0).offset;
    file.reset();
    ASSERT_TRUE(env.RemoveFile("db/wal-000001.log").ok());

    ASSERT_TRUE(env.NewWritableFile("db/wal-000002.log", &file).ok());
    wal::Writer fresh(file.get());
    ASSERT_TRUE(fresh.AddRecord("new-record").ok());
    ASSERT_EQ(pool->ListObjects().size(), 1u);
    ASSERT_EQ(pool->ListObjects().at(0).offset, old_offset)
        << "the new log did not reuse the freed extent";
  }
  pool->SimulateCrash(11, /*unpersisted_survival_prob=*/1.0);
  pool.reset();

  ASSERT_TRUE(PmPool::Open(path, popts, &pool).ok());
  PmLogEnv env(pool.get(), PosixEnv(), /*create_in_pm=*/true);
  EXPECT_FALSE(env.FileExists("db/wal-000001.log"));
  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(env.NewSequentialFile("db/wal-000002.log", &file).ok());
  wal::Reader reader(file.get(), nullptr);
  std::vector<std::string> records;
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    records.push_back(record.ToString());
  }
  EXPECT_EQ(records, std::vector<std::string>{"new-record"});
  pool.reset();
  ::unlink(path.c_str());
}

// A full pool fails the append cleanly: Busy, nothing written, no sticky
// error. The failed write rotates the memtable, and once that flush frees
// the log, writes go through again.
TEST_F(PmWalTest, FullPoolIsBusyAndWritesResumeAfterTheFlush) {
  options_.pm_crash_sim = false;
  options_.pm_pool_capacity = 1 << 20;  // room for 16 log segments
  options_.l0_layout = L0Layout::kSstable;  // the flush needs no PM
  Open();
  const std::string value(1000, 'x');
  int acked = 0;
  Status s;
  for (; acked < 4000; ++acked) {
    s = db_->Put(WriteOptions(), "k" + std::to_string(acked), value);
    if (!s.ok()) break;
  }
  ASSERT_TRUE(s.IsBusy()) << s.ToString();
  ASSERT_GT(acked, 100);

  // Writes resume without any call but the retry.
  bool resumed = false;
  for (int attempt = 0; attempt < 500 && !resumed; ++attempt) {
    s = db_->Put(WriteOptions(), "after", "a");
    resumed = s.ok();
    if (!resumed) {
      ASSERT_TRUE(s.IsBusy()) << s.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(resumed);
  for (int i = 0; i < acked; i += 97) {
    EXPECT_EQ(Get("k" + std::to_string(i)), value) << i;
  }
  EXPECT_TRUE(Get("k" + std::to_string(acked)).find("NotFound") == 0);
  db_.reset();
  Open();
  EXPECT_EQ(Get("after"), "a");
  EXPECT_EQ(Get("k" + std::to_string(acked - 1)), value);
}

}  // namespace
}  // namespace pmblade
