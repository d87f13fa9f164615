// Randomized property tests for pmblade::DB: a model-checked workload with
// mixed mutations, maintenance operations and bidirectional iterator walks,
// swept over several seeds via TEST_P; plus targeted tests for the
// partition-concat iterator, recovery garbage collection and the Eq. 3
// retention behaviour observable through the public API.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/version.h"
#include "obs/event.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "pmtable/pm_table_builder.h"
#include "util/random.h"

namespace pmblade {
namespace {

class DbModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_model_test";
    options_ = Options();
    DestroyDB(options_, dbname_);
    options_.memtable_bytes = 32 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.cost.tau_m = 2 << 20;
    options_.cost.tau_t = 1 << 20;
    options_.cost.tau_w = 64 << 10;
    options_.partition_boundaries = {"key25", "key5", "key75"};
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

TEST_P(DbModelTest, MixedWorkloadWithIteratorWalks) {
  Random rnd(GetParam());
  std::map<std::string, std::string> model;

  auto check_iterator_from = [&](const std::string& seek_key) {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    it->Seek(seek_key);
    auto expect = model.lower_bound(seek_key);
    // Walk forward a few steps.
    int steps = 1 + static_cast<int>(rnd.Uniform(20));
    for (int i = 0; i < steps; ++i) {
      if (expect == model.end()) {
        ASSERT_FALSE(it->Valid());
        return;
      }
      ASSERT_TRUE(it->Valid()) << "missing " << expect->first;
      ASSERT_EQ(it->key().ToString(), expect->first);
      ASSERT_EQ(it->value().ToString(), expect->second);
      it->Next();
      ++expect;
    }
    // Then walk backward a few steps.
    int back = 1 + static_cast<int>(rnd.Uniform(5));
    for (int i = 0; i < back; ++i) {
      if (expect == model.begin()) return;
      --expect;
      if (it->Valid()) {
        it->Prev();
      } else {
        it->SeekToLast();
      }
      if (expect == model.end()) continue;
      ASSERT_TRUE(it->Valid()) << "backward missing " << expect->first;
      ASSERT_EQ(it->key().ToString(), expect->first);
    }
  };

  for (int op = 0; op < 4000; ++op) {
    double r = rnd.NextDouble();
    std::string key = "key" + std::to_string(rnd.Uniform(500));
    if (r < 0.55) {
      std::string value;
      rnd.RandomBytes(rnd.Uniform(128), &value);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    } else if (r < 0.70) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else if (r < 0.90) {
      std::string value;
      Status s = db_->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
        ASSERT_EQ(value, it->second);
      }
    } else if (r < 0.96) {
      check_iterator_from(key);
    } else if (r < 0.98) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    } else if (r < 0.99) {
      ASSERT_TRUE(db_->CompactLevel0().ok());
    } else {
      ASSERT_TRUE(db_->CompactToLevel1(true).ok());
    }
  }

  // Final exhaustive comparisons.
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid()) << "missing " << k;
    ASSERT_EQ(it->key().ToString(), k);
    ASSERT_EQ(it->value().ToString(), v);
    it->Next();
  }
  ASSERT_FALSE(it->Valid());
  // And the reverse direction.
  it->SeekToLast();
  for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
    ASSERT_TRUE(it->Valid()) << "reverse missing " << rit->first;
    ASSERT_EQ(it->key().ToString(), rit->first);
    it->Prev();
  }
  ASSERT_FALSE(it->Valid());
}

TEST_P(DbModelTest, ModelSurvivesReopen) {
  Random rnd(GetParam() * 31 + 7);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 1500; ++op) {
    std::string key = "key" + std::to_string(rnd.Uniform(200));
    if (rnd.OneIn(8)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = "v" + std::to_string(op);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
    if (op % 400 == 399) { ASSERT_TRUE(db_->FlushMemTable().ok()); }
    if (op % 700 == 699) { ASSERT_TRUE(db_->CompactToLevel1(true).ok()); }
  }

  db_.reset();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  db_ = std::move(db);

  for (auto& [k, v] : model) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
    ASSERT_EQ(value, v);
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  size_t count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  ASSERT_EQ(count, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbModelTest,
                         ::testing::Values(1, 42, 1337, 0xdecafbad));

// ---------------------------------------------------------------------------
// PartitionConcatIterator
// ---------------------------------------------------------------------------

class PartitionConcatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_concat_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions popts;
    popts.capacity = 32 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, popts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  L0TableRef Build(const std::vector<std::string>& user_keys,
                   SequenceNumber seq) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (const auto& k : user_keys) {
      std::string ikey;
      AppendInternalKey(&ikey, k, seq, kTypeValue);
      builder.Add(ikey, "v-" + k);
    }
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
  InternalKeyComparator icmp_{BytewiseComparator()};
};

TEST_F(PartitionConcatTest, WalksAcrossPartitionsInOrder) {
  std::vector<PartitionSnapshot> parts(3);
  parts[0].end_key = "h";
  parts[0].unsorted.push_back(Build({"apple", "fig"}, 10));
  parts[1].begin_key = "h";
  parts[1].end_key = "p";
  parts[1].sorted_run.push_back(Build({"kiwi", "mango"}, 10));
  parts[2].begin_key = "p";
  parts[2].ssd_runs.push_back({Build({"pear", "plum"}, 10)});

  std::unique_ptr<Iterator> it(
      NewPartitionConcatIterator(&icmp_, parts));
  std::vector<std::string> forward;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    forward.push_back(ExtractUserKey(it->key()).ToString());
  }
  EXPECT_EQ(forward, (std::vector<std::string>{"apple", "fig", "kiwi",
                                               "mango", "pear", "plum"}));
  // Backward.
  std::vector<std::string> backward;
  for (it->SeekToLast(); it->Valid(); it->Prev()) {
    backward.push_back(ExtractUserKey(it->key()).ToString());
  }
  EXPECT_EQ(backward, (std::vector<std::string>{"plum", "pear", "mango",
                                                "kiwi", "fig", "apple"}));
}

TEST_F(PartitionConcatTest, SeekLandsInRightPartition) {
  std::vector<PartitionSnapshot> parts(3);
  parts[0].end_key = "h";
  parts[0].unsorted.push_back(Build({"apple"}, 10));
  parts[1].begin_key = "h";
  parts[1].end_key = "p";
  parts[1].unsorted.push_back(Build({"kiwi"}, 10));
  parts[2].begin_key = "p";
  parts[2].unsorted.push_back(Build({"plum"}, 10));

  std::unique_ptr<Iterator> it(
      NewPartitionConcatIterator(&icmp_, parts));
  std::string seek;
  AppendInternalKey(&seek, "j", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "kiwi");

  // Seek into an empty middle partition falls through to the next.
  std::vector<PartitionSnapshot> sparse(3);
  sparse[0].end_key = "h";
  sparse[0].unsorted.push_back(Build({"apple"}, 10));
  sparse[1].begin_key = "h";
  sparse[1].end_key = "p";  // empty partition
  sparse[2].begin_key = "p";
  sparse[2].unsorted.push_back(Build({"plum"}, 10));
  it.reset(NewPartitionConcatIterator(&icmp_, sparse));
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "plum");
  // Past everything.
  std::string big;
  AppendInternalKey(&big, "zzz", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(big);
  EXPECT_FALSE(it->Valid());
}

TEST_F(PartitionConcatTest, EmptySnapshotListIsEmptyIterator) {
  std::unique_ptr<Iterator> it(
      NewPartitionConcatIterator(&icmp_, {}));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->SeekToLast();
  EXPECT_FALSE(it->Valid());
}

// ---------------------------------------------------------------------------
// Recovery garbage collection & retention
// ---------------------------------------------------------------------------

TEST(DbRecoveryGcTest, OrphanPoolObjectsAndFilesCollected) {
  // On each WAL device: a reopen after a flush, and a reopen with no
  // manifest (a crash before its first commit), where the keys are in the
  // log only.
  for (bool wal_in_pm : {true, false}) {
    for (bool remove_manifest : {false, true}) {
      SCOPED_TRACE(std::string(wal_in_pm ? "pm wal" : "ssd wal") +
                   (remove_manifest ? ", no manifest" : ", flushed"));
      std::string dbname = ::testing::TempDir() + "pmblade_gc_test";
      Options options;
      DestroyDB(options, dbname);
      options.memtable_bytes = 32 << 10;
      options.pm_pool_capacity = 32 << 20;
      options.pm_latency.inject_latency = false;
      options.wal_in_pm = wal_in_pm;

      uint64_t orphan_pool_id;
      {
        std::unique_ptr<DB> db;
        ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
        for (int i = 0; i < 100; ++i) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), "key" + std::to_string(i), "v").ok());
        }
        if (!remove_manifest) { ASSERT_TRUE(db->FlushMemTable().ok()); }

        // Simulate an interrupted compaction: an allocated-but-unreferenced
        // pool object and an orphan .sst file.
        PmPool* pool = static_cast<DBImpl*>(db.get())->pm_pool();
        PmPool::ObjectInfo info;
        char* data;
        ASSERT_TRUE(pool->Allocate(4096, kPmTableObject, &info, &data).ok());
        orphan_pool_id = info.id;
        ASSERT_TRUE(
            WriteStringToFile(PosixEnv(), "junk", dbname + "/999999.sst")
                .ok());
      }
      if (remove_manifest) {
        ASSERT_TRUE(PosixEnv()->RemoveFile(dbname + "/MANIFEST").ok());
      }

      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
      auto* impl = static_cast<DBImpl*>(db.get());
      // Orphan pool object freed, orphan file removed, data intact.
      EXPECT_EQ(impl->pm_pool()->DataFor(orphan_pool_id), nullptr);
      EXPECT_FALSE(PosixEnv()->FileExists(dbname + "/999999.sst"));
      for (int i = 0; i < 100; ++i) {
        std::string value;
        EXPECT_TRUE(
            db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
            << i;
      }
      db.reset();
      DestroyDB(options, dbname);
    }
  }
}

TEST(DbRetentionTest, HotPartitionStaysInPmAfterMajorCompaction) {
  std::string dbname = ::testing::TempDir() + "pmblade_retention_test";
  Options options;
  DestroyDB(options, dbname);
  options.memtable_bytes = 32 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.partition_boundaries = {"m"};      // [.., m) and [m, ..)
  options.cost.tau_t = 20 << 10;             // room for only one partition

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  // Equal data in both partitions.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "a-key" + std::to_string(i),
                        std::string(100, 'x'))
                    .ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "z-key" + std::to_string(i),
                        std::string(100, 'x'))
                    .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  // Heat up the 'a' partition with reads.
  for (int round = 0; round < 50; ++round) {
    std::string value;
    ASSERT_TRUE(
        db->Get(ReadOptions(), "a-key" + std::to_string(round % 100), &value)
            .ok());
  }
  ASSERT_TRUE(db->CompactToLevel1(/*respect_cost_model=*/true).ok());

  // The hot partition's data must still answer from PM; the cold one from
  // the SSD. Read counters are monotonic, so each Get is measured as the
  // growth of its source's counter.
  auto reads = [&db](const char* source) {
    uint64_t value = 0;
    EXPECT_TRUE(db->GetProperty(source, &value)) << source;
    return value;
  };
  std::string value;
  uint64_t before = reads("pmblade.reads.pm_l0");
  ASSERT_TRUE(db->Get(ReadOptions(), "a-key5", &value).ok());
  EXPECT_EQ(reads("pmblade.reads.pm_l0") - before, 1u)
      << "hot partition should be retained in PM";
  before = reads("pmblade.reads.ssd_l1");
  ASSERT_TRUE(db->Get(ReadOptions(), "z-key5", &value).ok());
  EXPECT_EQ(reads("pmblade.reads.ssd_l1") - before, 1u)
      << "cold partition should have moved to the SSD";
  db.reset();
  DestroyDB(options, dbname);
}

// ---------------------------------------------------------------------------
// Observability: string-property exporters (pmblade.stats.json /
// pmblade.stats.prometheus / pmblade.trace.json) after real engine activity.
// ---------------------------------------------------------------------------

class DbObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_obs_prop_test";
    options_ = Options();
    DestroyDB(options_, dbname_);
    options_.memtable_bytes = 32 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.cost.tau_m = 2 << 20;
    // Keep-set budget below any partition's size: CompactToLevel1 always
    // has victims, so the workload reliably reaches SSD level-1.
    options_.cost.tau_t = 1 << 10;
    options_.cost.tau_w = 64 << 10;
    options_.partition_boundaries = {"key25", "key5", "key75"};
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    db_ = std::move(db);
  }
  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  // Drives the engine through >= 1 flush, >= 1 internal compaction (via the
  // cost-model decision path and the forced path) and >= 1 major
  // compaction, with reads from memtable, PM level-0 and SSD level-1.
  void RunWorkload() {
    Random rnd(17);
    std::string value(128, 'v');
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db_->Put(WriteOptions(),
                             "key" + std::to_string(rnd.Uniform(400)), value)
                        .ok());
      }
      ASSERT_TRUE(db_->FlushMemTable().ok());
      std::string out;
      for (int i = 0; i < 20; ++i) {
        (void)db_->Get(ReadOptions(), "key" + std::to_string(i), &out);
      }
    }
    ASSERT_TRUE(db_->CompactLevel0().ok());            // internal, forced
    ASSERT_TRUE(db_->CompactToLevel1(true).ok());      // major + Eq. 3
    std::string out;
    for (int i = 0; i < 20; ++i) {
      (void)db_->Get(ReadOptions(), "key" + std::to_string(i), &out);
    }
  }

  // Value of "name":<number> in a flat JSON metrics map, or -1.
  static double MetricValue(const std::string& json, const std::string& name) {
    std::string needle = "\"" + name + "\":";
    size_t pos = json.find(needle);
    if (pos == std::string::npos) return -1;
    return strtod(json.c_str() + pos + needle.size(), nullptr);
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbObservabilityTest, StatsJsonCoversAcceptanceCriteria) {
  RunWorkload();
  std::string json;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  size_t pos = 0;
  ASSERT_TRUE(obs::JsonLint(json, &pos))
      << "error at " << pos << " in " << json.substr(0, 200);

  // Per-source read counts: the workload read from the memtable, PM L0 and
  // (after major compaction) SSD L1.
  ASSERT_GE(MetricValue(json, "pmblade.reads.memtable"), 0.0);
  ASSERT_GT(MetricValue(json, "pmblade.reads.pm_l0"), 0.0);
  ASSERT_GT(MetricValue(json, "pmblade.reads.ssd_l1"), 0.0);
  ASSERT_GE(MetricValue(json, "pmblade.reads.miss"), 0.0);

  // Flush / compaction activity.
  ASSERT_GE(MetricValue(json, "pmblade.flush.count"), 6.0);
  ASSERT_GT(MetricValue(json, "pmblade.compaction.internal.count"), 0.0);
  ASSERT_GT(MetricValue(json, "pmblade.compaction.major.count"), 0.0);

  // Eq. 1/Eq. 2 evaluations happened (one per touched partition per flush)
  // and the Eq. 3 keep-set ran.
  ASSERT_GT(MetricValue(json, "pmblade.cost.decisions"), 0.0);
  ASSERT_GE(MetricValue(json, "pmblade.cost.keep_set_selections"), 1.0);

  // The q_flush gauge is exported (idle engine => full budget, >= 0).
  ASSERT_GE(MetricValue(json, "pmblade.io.q_flush"), 0.0);

  // At least one internal_decision event with its Eq. 1/Eq. 2 inputs rode
  // along in the trace.
  ASSERT_NE(json.find("\"internal_decision\""), std::string::npos);
  ASSERT_NE(json.find("\"n_r_hat\""), std::string::npos);
  ASSERT_NE(json.find("\"eq1_benefit_rate\""), std::string::npos);
  ASSERT_NE(json.find("\"eq2_ssd_savings\""), std::string::npos);
}

TEST_F(DbObservabilityTest, PrometheusDumpIsLineParseable) {
  RunWorkload();
  std::string text;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.prometheus", &text));
  ASSERT_FALSE(text.empty());

  std::stringstream ss(text);
  std::string line;
  int samples = 0;
  std::set<std::string> typed;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      ASSERT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      std::stringstream ts(line.substr(7));
      std::string name, kind;
      ts >> name >> kind;
      ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      typed.insert(name);
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    strtod(line.c_str() + space + 1, &end);
    ASSERT_EQ(*end, '\0') << line;
    ++samples;
  }
  ASSERT_GT(samples, 0);
  // One # TYPE per registered metric.
  auto* impl = static_cast<DBImpl*>(db_.get());
  ASSERT_EQ(typed.size(), impl->metrics_registry()->NumMetrics());
  ASSERT_TRUE(typed.count("pmblade_reads_pm_l0")) << text.substr(0, 400);
  ASSERT_TRUE(typed.count("pmblade_io_q_flush"));
}

TEST_F(DbObservabilityTest, TraceJsonLinesEachValid) {
  RunWorkload();
  std::string dump;
  ASSERT_TRUE(db_->GetProperty("pmblade.trace.json", &dump));
  ASSERT_FALSE(dump.empty());
  std::stringstream ss(dump);
  std::string line;
  int lines = 0;
  std::set<std::string> types;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    size_t pos = 0;
    ASSERT_TRUE(obs::JsonLint(line, &pos)) << line << " error at " << pos;
    size_t tpos = line.find("\"type\":\"");
    ASSERT_NE(tpos, std::string::npos) << line;
    tpos += strlen("\"type\":\"");
    types.insert(line.substr(tpos, line.find('"', tpos) - tpos));
    ++lines;
  }
  ASSERT_GT(lines, 0);
  // The workload exercises the full event vocabulary minus splits.
  ASSERT_TRUE(types.count("flush_begin"));
  ASSERT_TRUE(types.count("flush_end"));
  ASSERT_TRUE(types.count("internal_decision"));
  ASSERT_TRUE(types.count("major_compaction_begin"));
}

TEST_F(DbObservabilityTest, DecisionCountersAfterForcedInternalCompaction) {
  auto* impl = static_cast<DBImpl*>(db_.get());
  std::string value(128, 'v');
  // Several flushes so MaybeScheduleCompactions evaluates Eqs. 1-2.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i), value)
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  ASSERT_TRUE(db_->CompactLevel0().ok());

  obs::MetricsSnapshot snap = impl->metrics_registry()->Snapshot();
  const obs::MetricSample* decisions = snap.Find("pmblade.cost.decisions");
  ASSERT_NE(decisions, nullptr);
  ASSERT_GT(decisions->value, 0.0);
  const obs::MetricSample* internal =
      snap.Find("pmblade.compaction.internal.count");
  ASSERT_NE(internal, nullptr);
  ASSERT_GT(internal->value, 0.0);
  // Trigger counters never exceed evaluations.
  const obs::MetricSample* eq1 = snap.Find("pmblade.cost.eq1_triggered");
  const obs::MetricSample* eq2 = snap.Find("pmblade.cost.eq2_triggered");
  ASSERT_NE(eq1, nullptr);
  ASSERT_NE(eq2, nullptr);
  ASSERT_LE(eq1->value, decisions->value);
  ASSERT_LE(eq2->value, decisions->value);
}

TEST_F(DbObservabilityTest, UnknownStringPropertyReturnsFalse) {
  std::string out = "untouched";
  ASSERT_FALSE(db_->GetProperty("pmblade.no.such.property", &out));
  ASSERT_EQ(out, "untouched");
}

TEST_F(DbObservabilityTest, TracingDisabledWithZeroRingCapacity) {
  db_.reset();
  DestroyDB(options_, dbname_);
  options_.trace_ring_capacity = 0;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  db_ = std::move(db);
  ASSERT_TRUE(db_->Put(WriteOptions(), "key1", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string dump;
  ASSERT_TRUE(db_->GetProperty("pmblade.trace.json", &dump));
  ASSERT_TRUE(dump.empty());
  // Metrics still work without the trace ring.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  ASSERT_TRUE(obs::JsonLint(json));
  ASSERT_NE(json.find("\"events\":[]"), std::string::npos);
}

}  // namespace
}  // namespace pmblade
