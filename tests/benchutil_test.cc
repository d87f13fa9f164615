// Tests for the benchmark substrate: key/value/op generators, the YCSB
// workload driver, the online-retail workload, the engine runner, the JSON
// writer and the benchmark_kv sweeps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "benchutil/reporter.h"
#include "benchutil/retail_workload.h"
#include "benchutil/runner.h"
#include "benchutil/sweep.h"
#include "benchutil/workload.h"
#include "benchutil/ycsb.h"
#include "obs/exporter.h"

namespace pmblade {
namespace bench {
namespace {

TEST(KeyGeneratorTest, FormatsKeysWithPrefixAndPadding) {
  KeySpec spec;
  spec.prefix = "user";
  spec.digits = 8;
  spec.num_keys = 100;
  KeyGenerator gen(spec);
  EXPECT_EQ(gen.KeyAt(0), "user00000000");
  EXPECT_EQ(gen.KeyAt(99), "user00000099");
}

TEST(KeyGeneratorTest, SequentialCycles) {
  KeySpec spec;
  spec.num_keys = 3;
  spec.distribution = Distribution::kSequential;
  KeyGenerator gen(spec);
  EXPECT_EQ(gen.NextIndex(), 0u);
  EXPECT_EQ(gen.NextIndex(), 1u);
  EXPECT_EQ(gen.NextIndex(), 2u);
  EXPECT_EQ(gen.NextIndex(), 0u);
}

TEST(KeyGeneratorTest, AllDistributionsStayInRange) {
  for (Distribution d : {Distribution::kUniform, Distribution::kZipfian,
                         Distribution::kLatest, Distribution::kSequential}) {
    KeySpec spec;
    spec.num_keys = 500;
    spec.distribution = d;
    KeyGenerator gen(spec);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(gen.NextIndex(), 500u);
    }
  }
}

TEST(KeyGeneratorTest, PartitionBoundariesAreAscending) {
  KeySpec spec;
  spec.num_keys = 100000;
  KeyGenerator gen(spec);
  auto boundaries = gen.PartitionBoundaries(8);
  ASSERT_EQ(boundaries.size(), 7u);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
  }
}

TEST(ValueGeneratorTest, ExactSizeAndDeterministic) {
  ValueGenerator gen(137);
  std::string a = gen.For(42);
  std::string b = gen.For(42);
  std::string c = gen.For(43);
  EXPECT_EQ(a.size(), 137u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(OpChooserTest, RespectsMixProportions) {
  OpMix mix;
  mix.read = 0.7;
  mix.update = 0.3;
  OpChooser chooser(mix, 5);
  int reads = 0, updates = 0, other = 0;
  for (int i = 0; i < 10000; ++i) {
    switch (chooser.Next()) {
      case OpType::kRead: ++reads; break;
      case OpType::kUpdate: ++updates; break;
      default: ++other; break;
    }
  }
  EXPECT_NEAR(reads, 7000, 300);
  EXPECT_NEAR(updates, 3000, 300);
  EXPECT_EQ(other, 0);
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    BenchEnvOptions eopts;
    eopts.root = ::testing::TempDir() + "pmblade_benchutil_test";
    eopts.inject_ssd_latency = false;
    eopts.inject_pm_latency = false;
    eopts.memtable_bytes = 64 << 10;
    env_.reset(new BenchEnv(eopts));
  }

  std::unique_ptr<BenchEnv> env_;
};

TEST_F(EngineFixture, RunnerOpensEveryConfig) {
  for (EngineConfig config :
       {EngineConfig::kPmBlade, EngineConfig::kPmBladePm,
        EngineConfig::kPmBladeSsd, EngineConfig::kPmbP,
        EngineConfig::kPmbPI, EngineConfig::kPmbPIC,
        EngineConfig::kRocksStyle, EngineConfig::kMatrixKvSmall,
        EngineConfig::kMatrixKvLarge}) {
    KvEngine* engine = nullptr;
    ASSERT_TRUE(env_->OpenEngine(config, &engine).ok())
        << EngineConfigName(config);
    ASSERT_NE(engine, nullptr);
    ASSERT_TRUE(engine->Put("smoke", "test").ok());
    std::string value;
    ASSERT_TRUE(engine->Get("smoke", &value).ok());
    EXPECT_EQ(value, "test");
    EXPECT_GT(env_->UserBytesWritten(), 0u);
  }
}

// The three engine families record under the same metric names, so
// BenchEnv reads the PM hit ratio, user bytes and PM bytes the same way for
// each: from the open engine's registry.
TEST_F(EngineFixture, StatisticsReadTheEngineRegistry) {
  struct Case {
    EngineConfig config;
    double hit_ratio_after_flush;  // 1.0 when the flush lands on PM
    bool has_pm;
  };
  for (const Case& c : {Case{EngineConfig::kPmBlade, 1.0, true},
                        Case{EngineConfig::kRocksStyle, 0.5, false},
                        Case{EngineConfig::kMatrixKvSmall, 1.0, true}}) {
    KvEngine* engine = nullptr;
    ASSERT_TRUE(env_->OpenEngine(c.config, &engine).ok());
    const char* name = EngineConfigName(c.config);
    EXPECT_EQ(env_->PmHitRatio(), 0.0) << name;  // no reads yet
    ASSERT_TRUE(engine->Put("k", "v").ok());
    EXPECT_GT(env_->UserBytesWritten(), 0u) << name;
    std::string value;
    ASSERT_TRUE(engine->Get("k", &value).ok());  // the memtable answers
    // A miss is not an answered read: it leaves the ratio alone.
    ASSERT_TRUE(engine->Get("absent", &value).IsNotFound());
    EXPECT_DOUBLE_EQ(env_->PmHitRatio(), 1.0) << name;
    EXPECT_EQ(env_->Metric("pmblade.reads.miss"), 1u) << name;

    ASSERT_TRUE(env_->FlushEngine().ok());
    ASSERT_TRUE(engine->Get("k", &value).ok());
    EXPECT_DOUBLE_EQ(env_->PmHitRatio(), c.hit_ratio_after_flush) << name;
    EXPECT_EQ(env_->PmBytesWritten() > 0, c.has_pm) << name;
  }
}

TEST_F(EngineFixture, YcsbLoadAndAllWorkloads) {
  KvEngine* engine = nullptr;
  ASSERT_TRUE(env_->OpenEngine(EngineConfig::kPmBlade, &engine).ok());

  YcsbOptions yopts;
  yopts.record_count = 500;
  yopts.operation_count = 300;
  yopts.value_size = 64;

  YcsbResult load;
  ASSERT_TRUE(YcsbLoad(engine, yopts, &load).ok());
  EXPECT_EQ(load.operations, 500u);
  EXPECT_GT(load.ThroughputOpsPerSec(), 0.0);
  EXPECT_EQ(load.insert_latency.count(), 500u);

  for (YcsbWorkload w : {YcsbWorkload::kA, YcsbWorkload::kB,
                         YcsbWorkload::kC, YcsbWorkload::kD,
                         YcsbWorkload::kE, YcsbWorkload::kF}) {
    YcsbResult result;
    ASSERT_TRUE(YcsbRun(engine, w, yopts, &result).ok()) << YcsbName(w);
    EXPECT_EQ(result.operations, 300u) << YcsbName(w);
  }

  // Loaded records are actually present.
  KeySpec spec;
  spec.prefix = yopts.key_prefix;
  spec.num_keys = yopts.record_count;
  KeyGenerator keys(spec);
  std::string value;
  ASSERT_TRUE(engine->Get(keys.KeyAt(123), &value).ok());
  EXPECT_EQ(value.size(), 64u);
}

TEST_F(EngineFixture, YcsbWorkloadMixesDiffer) {
  KvEngine* engine = nullptr;
  ASSERT_TRUE(env_->OpenEngine(EngineConfig::kPmBlade, &engine).ok());
  YcsbOptions yopts;
  yopts.record_count = 300;
  yopts.operation_count = 400;
  yopts.value_size = 32;
  YcsbResult load;
  ASSERT_TRUE(YcsbLoad(engine, yopts, &load).ok());

  YcsbResult c_result, e_result;
  ASSERT_TRUE(YcsbRun(engine, YcsbWorkload::kC, yopts, &c_result).ok());
  ASSERT_TRUE(YcsbRun(engine, YcsbWorkload::kE, yopts, &e_result).ok());
  // C is read-only; E is scan-dominated.
  EXPECT_EQ(c_result.read_latency.count(), 400u);
  EXPECT_EQ(c_result.scan_latency.count(), 0u);
  EXPECT_GT(e_result.scan_latency.count(), 300u);
}

TEST_F(EngineFixture, RetailWorkloadLoadsAndRuns) {
  KvEngine* engine = nullptr;
  ASSERT_TRUE(env_->OpenEngine(EngineConfig::kPmBlade, &engine).ok());

  RetailOptions ropts;
  ropts.load_orders = 40;
  ropts.transactions = 120;
  ropts.bytes_per_order = 2048;
  RetailWorkload workload(ropts);

  RetailResult load, run;
  ASSERT_TRUE(workload.Load(engine, &load).ok());
  EXPECT_EQ(load.transactions, 40u);
  EXPECT_EQ(load.write_latency.count(), 40u);

  ASSERT_TRUE(workload.Run(engine, &run).ok());
  EXPECT_EQ(run.transactions, 120u);
  // All transaction classes executed.
  EXPECT_GT(run.read_latency.count(), 0u);
  EXPECT_GT(run.scan_latency.count(), 0u);
  EXPECT_GT(run.write_latency.count(), 0u);
  EXPECT_GT(workload.next_order(), 40u);  // new orders placed during Run
}

TEST_F(EngineFixture, RetailBoundariesAscending) {
  RetailOptions ropts;
  RetailWorkload workload(ropts);
  auto boundaries = workload.PartitionBoundaries(8);
  EXPECT_GE(boundaries.size(), 3u);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
  }
}

TEST(FlagsTest, ParsesTypes) {
  const char* argv[] = {"prog", "--count=42", "--rate=2.5", "--on",
                        "--name=zipf"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.Int("count", 0), 42);
  EXPECT_DOUBLE_EQ(flags.Double("rate", 0), 2.5);
  EXPECT_TRUE(flags.Bool("on", false));
  EXPECT_EQ(flags.Str("name", ""), "zipf");
  EXPECT_EQ(flags.Int("absent", 7), 7);
}

TEST(FlagsTest, HasListsUnknownAndPositional) {
  const char* argv[] = {"prog", "--conns=1,8,32", "--typo=x", "seedfile"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("conns"));
  EXPECT_FALSE(flags.Has("absent"));

  std::vector<int64_t> conns = flags.IntList("conns", {});
  ASSERT_EQ(conns.size(), 3u);
  EXPECT_EQ(conns[0], 1);
  EXPECT_EQ(conns[2], 32);
  const char* malformed_argv[] = {"prog", "--conns=1,x,3"};
  Flags malformed(2, const_cast<char**>(malformed_argv));
  EXPECT_EQ(malformed.IntList("conns", {}), (std::vector<int64_t>{1, 3}));
  std::vector<int64_t> fallback = flags.IntList("absent", {2, 4});
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_EQ(fallback[1], 4);

  testing::internal::CaptureStderr();
  EXPECT_TRUE(flags.ReportUnknown({"conns"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "unknown flag --typo\n");
  EXPECT_FALSE(flags.ReportUnknown({"conns", "typo"}));

  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "seedfile");
}

TEST(TablePrinterTest, FormatsUnits) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtBytes(512), "512 B");
  EXPECT_EQ(TablePrinter::FmtBytes(2048), "2.00 KiB");
  EXPECT_EQ(TablePrinter::FmtBytes(3 << 20), "3.00 MiB");
  EXPECT_EQ(TablePrinter::FmtNanos(500), "500 ns");
  EXPECT_EQ(TablePrinter::FmtNanos(1500), "1.50 us");
  EXPECT_EQ(TablePrinter::FmtNanos(2.5e6), "2.50 ms");
}

TEST(JsonObjectTest, KeepsKeyOrderPrecisionAndNesting) {
  JsonObject row;
  row.Str("mode", "a\"b")
      .Int("gets", uint64_t{20000})
      .Int("failed_cycle", -1)
      .Num("ratio", 0.5, 4)
      .Bool("ok", true)
      .Obj("arbiter", JsonObject().Int("rebalances", 3))
      .Rows("configs", {JsonObject().Int("x", 1), JsonObject()});
  EXPECT_EQ(row.ToString(),
            "{\"mode\": \"a\\\"b\", \"gets\": 20000, \"failed_cycle\": -1, "
            "\"ratio\": 0.5000, \"ok\": true, "
            "\"arbiter\": {\"rebalances\": 3}, "
            "\"configs\": [{\"x\": 1}, {}]}");
  row.Append(JsonObject().Int("pm", 2));
  const std::string rows = JsonRows({row, JsonObject()});
  EXPECT_TRUE(obs::JsonLint(rows)) << rows;
  EXPECT_EQ(JsonRows({}), "[\n]\n");
}

// Every benchmark_kv sweep runs in-process at a tiny size: its JSON must
// parse and carry each key the CI gates read, and the caller's options and
// a fresh engine come back afterwards.
TEST(SweepTest, EverySweepWritesTheKeysItsGatesRead) {
  const std::string dir = ::testing::TempDir();
  SweepParams params;
  params.num = 2000;
  params.writers = 2;
  params.compaction_workers = 2;
  KeySpec spec;
  spec.num_keys = params.num;
  BenchEnvOptions eopts;
  eopts.root = dir + "pmblade_sweep_test";
  eopts.inject_ssd_latency = false;
  eopts.inject_pm_latency = false;
  eopts.partition_boundaries = KeyGenerator(spec).PartitionBoundaries(8);
  BenchEnv env(eopts);
  KvEngine* engine = nullptr;
  ASSERT_TRUE(env.OpenEngine(EngineConfig::kPmBlade, &engine).ok());

  struct Expect {
    size_t rows;
    std::vector<std::string> keys;
  };
  const std::map<std::string, Expect> expected = {
      {"write_scaling",
       {2,
        {"writers", "ssd", "pm", "ops", "ops_per_sec", "p99_us", "groups",
         "writes_per_group", "syncs", "ssd_writes_per_put"}}},
      {"compaction_parallel",
       {2,
        {"workers", "major_wall_ms", "subcompaction_slices", "fill_ops",
         "fill_ops_per_sec", "fill_p99_us", "speedup"}}},
      {"policy_sweep",
       {3,
        {"policy", "fill", "write_amp", "space_amp", "user_bytes",
         "compaction_bytes", "ssd_runs", "max_ssd_level", "read",
         "ssd_reads_per_get", "mixed"}}},
      {"read_skew",
       {3,
        {"mode", "gets", "ops_per_sec", "ssd_reads_per_get",
         "bloom_negatives_per_get", "cache_hit_ratio", "arbiter",
         "rebalances", "read_phase", "write_phase", "memtable_target",
         "block_cache_target"}}},
  };
  std::vector<Sweep> sweeps = BenchmarkSweeps(params);
  ASSERT_EQ(sweeps.size(), expected.size());
  for (Sweep& sweep : sweeps) {
    SCOPED_TRACE(sweep.name);
    ASSERT_EQ(expected.count(sweep.name), 1u);
    const Expect& want = expected.at(sweep.name);
    sweep.output = dir + "pmblade_sweep_test_" + sweep.output;
    ASSERT_TRUE(RunSweep(sweep, &env).ok());

    std::ifstream in(sweep.output);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    EXPECT_TRUE(obs::JsonLint(json)) << json;
    size_t rows = 0;
    for (size_t pos = json.find("\n  {"); pos != std::string::npos;
         pos = json.find("\n  {", pos + 1)) {
      ++rows;
    }
    EXPECT_EQ(rows, want.rows) << json;
    for (const std::string& key : want.keys) {
      EXPECT_NE(json.find("\"" + key + "\": "), std::string::npos)
          << key << " missing from " << json;
    }

    // The runner restored the options and reopened a fresh engine.
    EXPECT_EQ(env.mutable_options()->memtable_bytes, eopts.memtable_bytes);
    EXPECT_EQ(env.mutable_options()->compaction_policy, "leveled");
    EXPECT_FALSE(env.mutable_options()->wal_in_pm);
    EXPECT_EQ(env.mutable_options()->partition_boundaries.size(), 7u);
    ASSERT_NE(env.pmblade_db(), nullptr);
    EXPECT_EQ(env.UserBytesWritten(), 0u);
  }
}

TEST(SweepTest, RejectsEnginesItCannotRunOn) {
  BenchEnvOptions eopts;
  eopts.root = ::testing::TempDir() + "pmblade_sweep_engine_test";
  eopts.inject_ssd_latency = false;
  eopts.inject_pm_latency = false;
  BenchEnv env(eopts);
  KvEngine* engine = nullptr;
  ASSERT_TRUE(env.OpenEngine(EngineConfig::kRocksStyle, &engine).ok());
  for (const Sweep& sweep : BenchmarkSweeps(SweepParams())) {
    if (sweep.name == "write_scaling") continue;  // runs on any engine
    EXPECT_TRUE(RunSweep(sweep, &env).IsInvalidArgument()) << sweep.name;
  }
}

// Runs a two-point, three-repetition sweep whose second repetition raises
// SIGINT and reads cheaper, then exits 0 iff only the first point's first
// repetition was reported and nothing ran after the interrupt.
void RunInterruptedSweepAndExit(const std::string& dir) {
  BenchEnvOptions eopts;
  eopts.root = dir + "pmblade_sweep_interrupt_test";
  eopts.inject_ssd_latency = false;
  eopts.inject_pm_latency = false;
  BenchEnv env(eopts);
  KvEngine* engine = nullptr;
  if (!env.OpenEngine(EngineConfig::kPmBlade, &engine).ok()) _exit(2);
  InstallInterruptHandler();
  Sweep sweep;
  sweep.name = "interrupt_probe";
  sweep.output = dir + "pmblade_sweep_interrupt_test.json";
  sweep.reps = 3;
  sweep.columns = {"rep"};
  sweep.points = {{"first", nullptr, 0}, {"second", nullptr, 1}};
  int calls = 0;
  sweep.run = [&calls](const SweepPoint&, BenchEnv*) {
    const int rep = calls++;
    if (rep == 1) raise(SIGINT);  // interrupted midway: reads cheaper
    SweepRun run;
    run.json = JsonObject().Int("rep", rep);
    run.row = {std::to_string(rep)};
    run.cost = rep == 1 ? 1.0 : 10.0;
    return run;
  };
  if (!RunSweep(sweep, &env).ok()) _exit(3);
  std::ifstream in(sweep.output);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const bool ok = calls == 2 &&
                  json.find("\"rep\": 0") != std::string::npos &&
                  json.find("\"rep\": 1") == std::string::npos;
  _exit(ok ? 0 : 1);
}

// A SIGINT during a repetition discards that repetition: a run cut short
// is cheaper, so keeping it would report a partial fill as the point's
// best. The sweep runs in a death-test child, so the latched interrupt flag
// never reaches the other tests.
TEST(SweepTest, DiscardsARepetitionAnInterruptCutShort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(RunInterruptedSweepAndExit(::testing::TempDir()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace bench
}  // namespace pmblade
