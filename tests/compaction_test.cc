// Tests for the compaction module: merging iterator, internal compaction
// (dedup, tombstones, space release), cost models (Eqs. 1-3), the L0 table
// factory, and all three major-compaction engines.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "compaction/cost_model.h"
#include "compaction/internal_compaction.h"
#include "compaction/major_compaction.h"
#include "compaction/merging_iterator.h"
#include "compaction/minor_compaction.h"
#include "memtable/skiplist_memtable.h"
#include "pmtable/pm_table.h"
#include "pmtable/pm_table_builder.h"
#include "sstable/ssd_l0_table.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace pmblade {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType type = kTypeValue) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, type);
  return out;
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* m1 = new MemTable(icmp);
  MemTable* m2 = new MemTable(icmp);
  m1->Ref();
  m2->Ref();
  for (int i = 0; i < 100; i += 2) {
    m1->Add(i + 1, kTypeValue, "k" + std::to_string(1000 + i), "a");
  }
  for (int i = 1; i < 100; i += 2) {
    m2->Add(i + 1, kTypeValue, "k" + std::to_string(1000 + i), "b");
  }
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &icmp, {m1->NewIterator(), m2->NewIterator()}));
  merged->SeekToFirst();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(merged->Valid()) << i;
    EXPECT_EQ(ExtractUserKey(merged->key()).ToString(),
              "k" + std::to_string(1000 + i));
    merged->Next();
  }
  EXPECT_FALSE(merged->Valid());
  m1->Unref();
  m2->Unref();
}

TEST(MergingIteratorTest, NewerChildWinsTies) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* newer = new MemTable(icmp);
  MemTable* older = new MemTable(icmp);
  newer->Ref();
  older->Ref();
  older->Add(5, kTypeValue, "dup", "old");
  newer->Add(9, kTypeValue, "dup", "new");
  // Internal comparator orders by seq within a user key, so the merged
  // stream yields seq 9 then seq 5.
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &icmp, {newer->NewIterator(), older->NewIterator()}));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "old");
  newer->Unref();
  older->Unref();
}

TEST(MergingIteratorTest, SeekAndBackward) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* m1 = new MemTable(icmp);
  MemTable* m2 = new MemTable(icmp);
  m1->Ref();
  m2->Ref();
  m1->Add(1, kTypeValue, "a", "1");
  m1->Add(2, kTypeValue, "c", "3");
  m2->Add(3, kTypeValue, "b", "2");
  m2->Add(4, kTypeValue, "d", "4");
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &icmp, {m1->NewIterator(), m2->NewIterator()}));
  merged->Seek(IKey("b", kMaxSequenceNumber));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), "b");
  merged->Prev();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), "a");
  merged->SeekToLast();
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), "d");
  m1->Unref();
  m2->Unref();
}

// ---------------------------------------------------------------------------
// Internal compaction
// ---------------------------------------------------------------------------

class InternalCompactionTest : public ::testing::Test {
 protected:
  InternalCompactionTest() : icmp_(BytewiseComparator()) {}

  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_ic_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions popts;
    popts.capacity = 128 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, popts, &pool_).ok());
    L0FactoryOptions fopts;
    fopts.layout = L0Layout::kPmTable;
    factory_.reset(new L0TableFactory(fopts, pool_.get(), nullptr));
  }
  void TearDown() override {
    factory_.reset();
    pool_.reset();
    ::remove(path_.c_str());
  }

  /// Builds a PM table from (user key -> value) at a given base sequence.
  L0TableRef BuildTable(const std::map<std::string, std::string>& data,
                        SequenceNumber seq) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (auto& [k, v] : data) builder.Add(IKey(k, seq), v);
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  InternalKeyComparator icmp_;
  std::string path_;
  std::unique_ptr<PmPool> pool_;
  std::unique_ptr<L0TableFactory> factory_;
};

TEST_F(InternalCompactionTest, MergesAndDeduplicates) {
  // Two overlapping tables; newer (seq 20) shadows older (seq 10).
  std::map<std::string, std::string> older, newer;
  for (int i = 0; i < 100; ++i) {
    older["t|k" + std::to_string(1000 + i)] = "old";
  }
  for (int i = 50; i < 150; ++i) {
    newer["t|k" + std::to_string(1000 + i)] = "new";
  }
  std::vector<L0TableRef> inputs = {BuildTable(newer, 20),
                                    BuildTable(older, 10)};

  InternalCompactionOptions opts;
  opts.oldest_snapshot = kMaxSequenceNumber;
  std::vector<L0TableRef> outputs;
  InternalCompactionStats stats;
  ASSERT_TRUE(RunInternalCompaction(opts, icmp_, inputs, factory_.get(),
                                    &outputs, &stats)
                  .ok());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(stats.input_records, 200u);
  EXPECT_EQ(stats.output_records, 150u);  // 50 duplicates removed
  EXPECT_GT(stats.bytes_released(), 0);

  // Overlap region must hold the newer values.
  std::unique_ptr<Iterator> it(outputs[0]->NewIterator());
  it->Seek(IKey("t|k1075", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "new");
  it->Seek(IKey("t|k1010", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "old");
}

TEST_F(InternalCompactionTest, SnapshotKeepsOlderVersions) {
  std::map<std::string, std::string> older{{"t|k", "old"}};
  std::map<std::string, std::string> newer{{"t|k", "new"}};
  std::vector<L0TableRef> inputs = {BuildTable(newer, 20),
                                    BuildTable(older, 10)};

  InternalCompactionOptions opts;
  opts.oldest_snapshot = 15;  // a snapshot at 15 must still see "old"
  std::vector<L0TableRef> outputs;
  InternalCompactionStats stats;
  ASSERT_TRUE(RunInternalCompaction(opts, icmp_, inputs, factory_.get(),
                                    &outputs, &stats)
                  .ok());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(stats.output_records, 2u);  // both versions survive
}

TEST_F(InternalCompactionTest, TombstonesDroppedWhenAllowed) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("t|dead", 20, kTypeDeletion), "");
  builder.Add(IKey("t|dead", 10), "value");
  builder.Add(IKey("t|live", 10), "value");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  InternalCompactionOptions opts;
  opts.drop_tombstones = true;
  std::vector<L0TableRef> outputs;
  InternalCompactionStats stats;
  ASSERT_TRUE(RunInternalCompaction(opts, icmp_, {table}, factory_.get(),
                                    &outputs, &stats)
                  .ok());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(stats.output_records, 1u);
  std::unique_ptr<Iterator> it(outputs[0]->NewIterator());
  it->SeekToFirst();
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "t|live");
}

TEST_F(InternalCompactionTest, TombstonesKeptWhenNotBottom) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("t|dead", 20, kTypeDeletion), "");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  InternalCompactionOptions opts;
  opts.drop_tombstones = false;  // L1 may hold older data
  std::vector<L0TableRef> outputs;
  InternalCompactionStats stats;
  ASSERT_TRUE(RunInternalCompaction(opts, icmp_, {table}, factory_.get(),
                                    &outputs, &stats)
                  .ok());
  ASSERT_EQ(stats.output_records, 1u);  // tombstone preserved
}

TEST_F(InternalCompactionTest, SplitsIntoTargetSizedTables) {
  std::map<std::string, std::string> data;
  for (int i = 0; i < 2000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    data[key] = std::string(500, 'v');
  }
  std::vector<L0TableRef> inputs = {BuildTable(data, 10)};
  InternalCompactionOptions opts;
  opts.target_table_bytes = 200 << 10;  // ~1 MB of data -> ~5 tables
  std::vector<L0TableRef> outputs;
  InternalCompactionStats stats;
  ASSERT_TRUE(RunInternalCompaction(opts, icmp_, inputs, factory_.get(),
                                    &outputs, &stats)
                  .ok());
  EXPECT_GE(outputs.size(), 4u);
  uint64_t total = 0;
  for (auto& t : outputs) total += t->num_entries();
  EXPECT_EQ(total, 2000u);
}

TEST_F(InternalCompactionTest, SkewedUpdatesReleaseMoreSpace) {
  // Mirrors Table IV's mechanism: higher skew -> more duplicate user keys
  // across unsorted tables -> more space released.
  auto run = [&](double theta) {
    ZipfianGenerator gen(2000, theta, 17);
    SequenceNumber seq = 1;
    std::vector<L0TableRef> inputs;
    for (int t = 0; t < 8; ++t) {
      // Fixed write volume per table (Table IV fixes total data written):
      // duplicate user keys stay as distinct versions within the table.
      std::vector<std::pair<std::string, SequenceNumber>> draws;
      for (int i = 0; i < 500; ++i) {
        char key[32];
        snprintf(key, sizeof(key), "t|key%06llu",
                 static_cast<unsigned long long>(gen.Next()));
        draws.emplace_back(key, seq++);
      }
      std::sort(draws.begin(), draws.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first < b.first;
        return a.second > b.second;  // newer version first
      });
      PmTableBuilder builder(pool_.get(), PmTableOptions{});
      for (auto& [k, s] : draws) {
        builder.Add(IKey(k, s), std::string(100, 'v'));
      }
      std::shared_ptr<PmTable> table;
      EXPECT_TRUE(builder.Finish(&table).ok());
      inputs.push_back(table);
    }
    InternalCompactionOptions opts;
    std::vector<L0TableRef> outputs;
    InternalCompactionStats stats;
    EXPECT_TRUE(RunInternalCompaction(opts, icmp_, inputs, factory_.get(),
                                      &outputs, &stats)
                    .ok());
    for (auto& in : inputs) in->Destroy();
    for (auto& out : outputs) out->Destroy();
    return stats.bytes_released();
  };
  int64_t low_skew = run(0.1);
  int64_t high_skew = run(0.99);
  EXPECT_GT(high_skew, low_skew);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, Eq1TriggersOnHotUnsortedPartitions) {
  CostModelParams params;
  params.i_b = 1.0;
  params.i_p = 4.0;
  params.t_p = 1.0;
  CostModel model(params);

  PartitionCounters cold;
  cold.unsorted_tables = 10;
  cold.reads_per_sec = 0.0;  // nobody reads: no benefit
  EXPECT_FALSE(model.EvaluateInternal(cold).eq1_triggered);

  PartitionCounters hot = cold;
  hot.reads_per_sec = 100.0;  // 100 * (10/2) * 1 = 500 > 4
  EXPECT_TRUE(model.EvaluateInternal(hot).eq1_triggered);

  PartitionCounters single = hot;
  single.unsorted_tables = 1;  // below min threshold
  EXPECT_FALSE(model.EvaluateInternal(single).eq1_triggered);
}

TEST(CostModelTest, Eq2RequiresSizeGateAndUpdates) {
  CostModelParams params;
  params.tau_w = 1000;
  params.i_s = 40.0;
  params.i_p = 4.0;
  CostModel model(params);

  PartitionCounters p;
  p.unsorted_tables = 4;
  p.size_bytes = 500;  // below tau_w
  p.writes = 1000;
  p.updates = 900;
  EXPECT_FALSE(model.EvaluateInternal(p).eq2_triggered);

  p.size_bytes = 2000;  // passes gate: 900*40 > 1000*4
  EXPECT_TRUE(model.EvaluateInternal(p).eq2_triggered);

  p.updates = 50;  // 50*40 = 2000 < 4000
  EXPECT_FALSE(model.EvaluateInternal(p).eq2_triggered);
}

TEST(CostModelTest, Eq3GreedyKeepsHottestPerByte) {
  CostModelParams params;
  params.tau_t = 100;
  CostModel model(params);

  std::vector<PartitionCounters> parts(3);
  parts[0].partition_id = 0;
  parts[0].size_bytes = 60;
  parts[0].reads = 600;  // 10 reads/byte
  parts[1].partition_id = 1;
  parts[1].size_bytes = 60;
  parts[1].reads = 6000;  // 100 reads/byte (hottest)
  parts[2].partition_id = 2;
  parts[2].size_bytes = 40;
  parts[2].reads = 80;  // 2 reads/byte

  auto retained = model.SelectRetained(parts, model.base_tau_t());
  // Greedy: keep partition 1 (60), then partition 0 does not fit (120 > 100)
  // but partition 2 does (100 exactly).
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0], 1u);
  EXPECT_EQ(retained[1], 2u);
}

TEST(CostModelTest, SelectRetainedHonorsTheGivenBudget) {
  CostModelParams params;
  params.tau_t = 100;
  CostModel model(params);
  std::vector<PartitionCounters> parts(2);
  parts[0].partition_id = 0;
  parts[0].size_bytes = 80;
  parts[0].reads = 800;
  parts[1].partition_id = 1;
  parts[1].size_bytes = 80;
  parts[1].reads = 400;
  // The configured budget fits one partition; a doubled one fits both.
  EXPECT_EQ(model.SelectRetained(parts, model.base_tau_t()).size(), 1u);
  EXPECT_EQ(model.SelectRetained(parts, 200).size(), 2u);
}

TEST(CostModelTest, MajorCompactionGate) {
  CostModelParams params;
  params.tau_m = 1 << 20;
  CostModel model(params);
  EXPECT_FALSE(model.MajorCompactionDue(1 << 19));
  EXPECT_TRUE(model.MajorCompactionDue(1 << 20));
}

// ---------------------------------------------------------------------------
// Major compaction engines
// ---------------------------------------------------------------------------

class MajorCompactionTest
    : public ::testing::TestWithParam<CompactionEngine> {
 protected:
  MajorCompactionTest() : icmp_(BytewiseComparator()), policy_(10) {}

  void SetUp() override {
    dir_ = ::testing::TempDir() + "pmblade_major_test";
    PosixEnv()->RemoveDirRecursively(dir_);
    ASSERT_TRUE(PosixEnv()->CreateDir(dir_).ok());
    pool_path_ = dir_ + "/pool.pm";

    PmPoolOptions popts;
    popts.capacity = 64 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(pool_path_, popts, &pool_).ok());

    SsdModelOptions mopts;
    // Keep latencies tiny so tests are fast but the machinery is exercised.
    mopts.read_base_nanos = 2'000;
    mopts.write_base_nanos = 2'000;
    mopts.read_nanos_per_byte = 0.01;
    mopts.write_nanos_per_byte = 0.01;
    mopts.queue_penalty_nanos = 500;
    model_.reset(new SsdModel(mopts));

    L0FactoryOptions fopts;
    fopts.layout = L0Layout::kPmTable;
    fopts.icmp = &icmp_;
    fopts.filter_policy = &policy_;
    fopts.ssd_dir = dir_;
    factory_.reset(new L0TableFactory(fopts, pool_.get(), PosixEnv()));
  }
  void TearDown() override {
    factory_.reset();
    pool_.reset();
    PosixEnv()->RemoveDirRecursively(dir_);
  }

  L0TableRef BuildTable(int lo, int hi, SequenceNumber seq,
                        const std::string& value) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (int i = lo; i < hi; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "t|key%06d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, seq, kTypeValue);
      builder.Add(ikey, value);
    }
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  InternalKeyComparator icmp_;
  BloomFilterPolicy policy_;
  std::string dir_, pool_path_;
  std::unique_ptr<PmPool> pool_;
  std::unique_ptr<SsdModel> model_;
  std::unique_ptr<L0TableFactory> factory_;
};

TEST_P(MajorCompactionTest, CompactsRangePartitionedSubtasks) {
  // Two overlapping input tables; four key-range subtasks.
  L0TableRef newer = BuildTable(0, 4000, 20, "new");
  L0TableRef older = BuildTable(2000, 6000, 10, "old");

  MajorCompactionOptions opts;
  opts.engine = GetParam();
  opts.worker_threads = 2;
  opts.max_io_q = 4;
  opts.read_block_bytes = 8 << 10;
  opts.write_block_bytes = 8 << 10;

  MajorCompactor compactor(PosixEnv(), model_.get(), factory_.get(), opts);

  auto make_range_input = [&](int lo, int hi) {
    return [this, &newer, &older, lo, hi]() -> Iterator* {
      char lo_key[32], hi_key[32];
      snprintf(lo_key, sizeof(lo_key), "t|key%06d", lo);
      snprintf(hi_key, sizeof(hi_key), "t|key%06d", hi);
      Iterator* merged = NewMergingIterator(
          &icmp_, {newer->NewIterator(), older->NewIterator()});
      Iterator* range = new UserKeyRangeIterator(
          std::unique_ptr<Iterator>(merged), lo_key, hi_key);
      range->SeekToFirst();
      return range;
    };
  };

  std::vector<CompactionSubtaskInput> subtasks;
  for (int i = 0; i < 4; ++i) {
    CompactionSubtaskInput sub;
    sub.make_input = make_range_input(i * 1500, (i + 1) * 1500);
    sub.ssd_input_fraction = 0.3;
    subtasks.push_back(sub);
  }

  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats stats;
  ASSERT_TRUE(compactor.Run(subtasks, &outputs, &stats).ok());

  // 6000 distinct user keys, 2000 overlapping -> 8000 input, 6000 output.
  EXPECT_EQ(stats.input_records, 8000u);
  EXPECT_EQ(stats.output_records, 6000u);
  EXPECT_GT(stats.s1_reads, 0u);
  EXPECT_GT(stats.s3_writes, 0u);
  EXPECT_GT(stats.ssd_bytes_written, 0u);
  EXPECT_GT(stats.wall_nanos, 0u);
  ASSERT_EQ(outputs.size(), 4u);

  // Verify output contents: open each SSTable and check the overlap region
  // holds "new" values and totals match.
  uint64_t total_entries = 0;
  for (const auto& meta : outputs) {
    std::shared_ptr<SsdL0Table> table;
    TableReaderOptions ropts;
    ropts.comparator = &icmp_;
    ropts.filter_policy = &policy_;
    ropts.file_number = meta.file_number;
    ASSERT_TRUE(SsdL0Table::Open(PosixEnv(), meta.path, meta.file_number,
                                 ropts, &table)
                    .ok());
    std::unique_ptr<Iterator> it(table->NewIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ++total_entries;
      ParsedInternalKey parsed;
      ASSERT_TRUE(ParseInternalKey(it->key(), &parsed));
      std::string uk = parsed.user_key.ToString();
      int keynum = atoi(uk.substr(5).c_str());
      if (keynum < 4000) {
        EXPECT_EQ(it->value().ToString(), "new") << uk;
      } else {
        EXPECT_EQ(it->value().ToString(), "old") << uk;
      }
    }
  }
  EXPECT_EQ(total_entries, 6000u);
}

TEST_P(MajorCompactionTest, EmptyInputProducesNoOutput) {
  MajorCompactionOptions opts;
  opts.engine = GetParam();
  MajorCompactor compactor(PosixEnv(), model_.get(), factory_.get(), opts);
  std::vector<CompactionSubtaskInput> subtasks(2);
  for (auto& sub : subtasks) {
    sub.make_input = []() { return NewEmptyIterator(); };
  }
  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats stats;
  ASSERT_TRUE(compactor.Run(subtasks, &outputs, &stats).ok());
  EXPECT_TRUE(outputs.empty());
  EXPECT_EQ(stats.input_records, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, MajorCompactionTest,
                         ::testing::Values(CompactionEngine::kThread,
                                           CompactionEngine::kCoroutine,
                                           CompactionEngine::kPmBlade));

}  // namespace
}  // namespace pmblade
