// benchmark_kv — the paper's micro-benchmark tool (Section VI-A): a
// db_bench-style driver over the KvEngine interface, extended with record
// tables and secondary-index tables.
//
// Usage:
//   benchmark_kv [--engine=pmblade|pmblade-pm|pmblade-ssd|rocks|matrixkv]
//                [--benchmarks=fillseq,readrandom,...]
//                [--num=N] [--value_size=B] [--zipf=THETA]
//                [--scan_length=N] [--inject_latency=true|false]
//                [--writers=N] [--sync_writes=true|false]
//                [--shards=N] [--compaction_workers=N]
//                [--policy=leveled|tiered|lazy_leveling]
//                [--size_ratio=T] [--ssd_levels=L]
//                [--stats_dump=json|prometheus|both]
//
// --shards=N opens the pmblade configs as an N-way ShardedDB (hash-routed
// independent engines; see src/core/sharded_db.h). The baselines ignore it.
//
// --stats_dump prints the pmblade engine's full observability snapshot
// (metrics registry + recent trace events) after the benchmark list runs.
//
// Benchmarks:
//   fillseq      sequential inserts            fillrandom  random inserts
//   overwrite    random overwrites             readrandom  random point reads
//   readmissing  reads of absent keys          readseq     full forward scan
//   seekrandom   random seeks + short scans    deleterandom random deletes
//   indexfill    insert rows into a record table (+3 index tables)
//   indexquery   secondary-index queries (scan + verify + point reads)
//   mixed        50/50 zipfian read/update
//   flush        force a memtable flush        compact     force L0->L1
//   stats        print engine statistics
//
// Sweeps (entries of the runner in src/benchutil/sweep.cc; each opens a
// fresh engine per point, prints a table, writes one BENCH_*.json and then
// reopens a fresh engine with the flags' options for the rest of the list):
//   write_scaling       1..--writers concurrent writers, SSD WAL vs PM WAL
//                       -> BENCH_write_scaling.json
//   compaction_parallel forced majors at 1, 2, 4 .. --compaction_workers
//                       workers, best of 3 -> BENCH_compaction_parallel.json
//   read_skew           zipfian cold reads with no filter, bloom + cache,
//                       and + memory arbiter -> BENCH_read_path.json
//   policy_sweep        leveled vs tiered vs lazy_leveling, fill/read/mixed
//                       -> BENCH_compaction_policy.json (--engine=pmblade)

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "benchutil/reporter.h"
#include "benchutil/runner.h"
#include "benchutil/sweep.h"
#include "benchutil/table_codec.h"
#include "benchutil/workload.h"
#include "compaction/policy/compaction_picker.h"
#include "core/statistics.h"
#include "util/histogram.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

namespace {

// The sweeps read the shared flags through the SweepParams base.
struct Context : SweepParams {
  BenchEnv* env = nullptr;
  int scan_length = 50;
  uint32_t shards = 1;
};

void RunBenchmark(Context* ctx, const std::string& name) {
  for (const Sweep& sweep : BenchmarkSweeps(*ctx)) {
    if (sweep.name != name) continue;
    Status s = RunSweep(sweep, ctx->env);
    if (!s.ok()) {
      fprintf(stderr, "%s: %s\n", name.c_str(), s.ToString().c_str());
      exit(1);
    }
    return;
  }

  KvEngine* engine = ctx->env->engine();
  KeyGenerator keys(KeySpec{.num_keys = ctx->num, .zipf_theta = ctx->zipf});
  ValueGenerator values(ctx->value_size);
  Random rng(301);
  TableSchema schema;
  schema.table_id = 1;
  schema.num_columns = 10;
  schema.indexed_columns = {1, 4, 7};
  TableCodec codec(schema);
  std::string value;

  // Times `n` calls of op(i) and reports them. An interrupted run stops
  // early and still prints the partial numbers it measured.
  auto run = [&](uint64_t n, const std::function<void(uint64_t)>& op) {
    TimeOps(ctx->clock, 1, n, [&](int, uint64_t i) { op(i); }).Report(name);
  };
  if (name == "fillseq") {
    run(ctx->num, [&](uint64_t i) {
      CheckOp(engine->Put(keys.KeyAt(i), values.For(i)));
    });
  } else if (name == "fillrandom" || name == "overwrite") {
    run(ctx->num, [&](uint64_t) {
      const uint64_t k = rng.Uniform(ctx->num);
      CheckOp(engine->Put(keys.KeyAt(k), values.For(k)));
    });
  } else if (name == "readrandom") {
    run(ctx->num, [&](uint64_t) {
      CheckOp(engine->Get(keys.KeyAt(keys.NextIndex()), &value));
    });
  } else if (name == "readmissing") {
    run(ctx->num, [&](uint64_t i) {
      CheckOp(engine->Get("absent" + std::to_string(i), &value));
    });
  } else if (name == "readseq") {
    Histogram latency;
    uint64_t ops = 0;
    const uint64_t start = ctx->clock->NowNanos();
    std::unique_ptr<Iterator> it(engine->NewScanIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ++ops;  // per-entry accounting; one latency sample per 1k entries
      if (ops % 1000 == 0) latency.Add(1);
    }
    CheckOp(it->status());
    ReportOps(name, ops, ctx->clock->NowNanos() - start, latency);
  } else if (name == "seekrandom") {
    run(ctx->num / 10 + 1, [&](uint64_t) {
      std::unique_ptr<Iterator> it(engine->NewScanIterator());
      it->Seek(keys.KeyAt(keys.NextIndex()));
      for (int j = 0; j < ctx->scan_length && it->Valid(); ++j) it->Next();
      CheckOp(it->status());
    });
  } else if (name == "deleterandom") {
    run(ctx->num / 10 + 1, [&](uint64_t) {
      CheckOp(engine->Delete(keys.KeyAt(rng.Uniform(ctx->num))));
    });
  } else if (name == "indexfill") {
    run(ctx->num, [&](uint64_t i) {
      std::vector<std::string> columns(schema.num_columns);
      for (uint32_t c = 0; c < schema.num_columns; ++c) {
        columns[c] =
            "c" + std::to_string(c) + "-" + std::to_string(rng.Uniform(100));
      }
      CheckOp(codec.InsertRow(engine, i, columns));
    });
  } else if (name == "indexquery") {
    run(ctx->num / 10 + 1, [&](uint64_t) {
      uint32_t column = schema.indexed_columns[rng.Uniform(3)];
      std::string wanted = "c" + std::to_string(column) + "-" +
                           std::to_string(rng.Uniform(100));
      std::vector<uint64_t> pks;
      CheckOp(
          codec.IndexQuery(engine, column, wanted, ctx->scan_length, &pks));
    });
  } else if (name == "mixed") {
    run(ctx->num, [&](uint64_t) {
      const uint64_t k = keys.NextIndex();
      CheckOp(rng.OneIn(2) ? engine->Get(keys.KeyAt(k), &value)
                           : engine->Put(keys.KeyAt(k), values.For(k)));
    });
  } else if (name == "flush") {
    run(1, [&](uint64_t) { CheckOp(engine->Flush()); });
  } else if (name == "compact") {
    run(1, [&](uint64_t) {
      if (ctx->env->pmblade_db() != nullptr) {
        CheckOp(ctx->env->pmblade_db()->CompactToLevel1(true));
      } else if (ctx->env->baseline_db() != nullptr) {
        CheckOp(ctx->env->baseline_db()->CompactAll());
      }
    });
  } else if (name == "stats") {
    const obs::MetricsRegistry* registry = ctx->env->metrics_registry();
    printf("%s\n",
           registry != nullptr ? StatsSummary(*registry).c_str() : "(none)");
    printf("ssd written: %s, pm written: %s\n",
           TablePrinter::FmtBytes(ctx->env->SsdBytesWritten()).c_str(),
           TablePrinter::FmtBytes(ctx->env->PmBytesWritten()).c_str());
  } else {
    fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
    exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  InstallInterruptHandler();
  Flags flags(argc, argv);

  // Strict flag parsing: a typo like --polcy= silently benchmarking the
  // default policy is worse than an error.
  if (flags.ReportUnknown(
          {"engine", "benchmarks", "num", "value_size", "zipf",
           "scan_length", "writers", "compaction_workers", "shards",
           "sync_writes", "db", "inject_latency", "memtable_bytes",
           "partitions", "policy", "size_ratio", "ssd_levels",
           "stats_dump"})) {
    return 1;
  }

  std::string engine_name = flags.Str("engine", "pmblade");
  EngineConfig config;
  if (engine_name == "pmblade") config = EngineConfig::kPmBlade;
  else if (engine_name == "pmblade-pm") config = EngineConfig::kPmBladePm;
  else if (engine_name == "pmblade-ssd") config = EngineConfig::kPmBladeSsd;
  else if (engine_name == "rocks") config = EngineConfig::kRocksStyle;
  else if (engine_name == "matrixkv") config = EngineConfig::kMatrixKvSmall;
  else {
    fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 1;
  }

  Context ctx;
  ctx.num = flags.Int("num", 10000);
  ctx.value_size = flags.Int("value_size", 256);
  ctx.zipf = flags.Double("zipf", 0.99);
  ctx.scan_length = static_cast<int>(flags.Int("scan_length", 50));
  ctx.writers = static_cast<int>(flags.Int("writers", 1));
  if (ctx.writers < 1) ctx.writers = 1;
  ctx.compaction_workers = static_cast<int>(flags.Int("compaction_workers", 4));
  if (ctx.compaction_workers < 1) ctx.compaction_workers = 1;
  ctx.shards = static_cast<uint32_t>(flags.Int("shards", 1));
  if (ctx.shards < 1) ctx.shards = 1;
  ctx.sync_writes = flags.Bool("sync_writes", false);

  BenchEnvOptions eopts;
  eopts.root = flags.Str("db", "/tmp/pmblade_benchmark_kv");
  eopts.inject_ssd_latency = flags.Bool("inject_latency", true);
  eopts.inject_pm_latency = flags.Bool("inject_latency", true);
  eopts.memtable_bytes = flags.Int("memtable_bytes", 1 << 20);
  eopts.num_shards = ctx.shards;
  eopts.compaction_policy = flags.Str("policy", "leveled");
  if (!IsValidCompactionPolicy(eopts.compaction_policy)) {
    fprintf(stderr,
            "unknown --policy '%s' (want leveled|tiered|lazy_leveling)\n",
            eopts.compaction_policy.c_str());
    return 1;
  }
  eopts.compaction_size_ratio =
      static_cast<uint32_t>(flags.Int("size_ratio", 4));
  eopts.max_ssd_levels = static_cast<uint32_t>(flags.Int("ssd_levels", 3));
  eopts.partition_boundaries =
      KeyGenerator(KeySpec{.num_keys = ctx.num})
          .PartitionBoundaries(static_cast<int>(flags.Int("partitions", 8)));

  BenchEnv env(eopts);
  KvEngine* engine = nullptr;
  Status s = env.OpenEngine(config, &engine);
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  ctx.env = &env;

  printf("benchmark_kv: engine=%s num=%llu value_size=%zu zipf=%.2f "
         "shards=%u\n",
         EngineConfigName(config), (unsigned long long)ctx.num,
         ctx.value_size, ctx.zipf, ctx.shards);

  std::string benchmarks =
      flags.Str("benchmarks", "fillseq,readrandom,seekrandom,mixed,stats");
  std::stringstream ss(benchmarks);
  std::string name;
  while (std::getline(ss, name, ',') && !InterruptRequested()) {
    if (!name.empty()) RunBenchmark(&ctx, name);
  }
  if (InterruptRequested()) {
    printf("benchmark_kv: interrupted by signal %d, partial results above\n",
           InterruptSignal());
  }

  // --stats_dump: after all benchmarks, dump the observability snapshot of
  // the pmblade engine ("json", "prometheus", or "both").
  std::string stats_dump = flags.Str("stats_dump", "");
  if (!stats_dump.empty()) {
    DB* db = env.pmblade_db();
    if (db == nullptr) {
      fprintf(stderr, "--stats_dump: engine '%s' has no stats exporter\n",
              engine_name.c_str());
      return 1;
    }
    std::string dump;
    if (stats_dump == "json" || stats_dump == "both") {
      if (db->GetProperty("pmblade.stats.json", &dump)) {
        printf("%s\n", dump.c_str());
      }
    }
    if (stats_dump == "prometheus" || stats_dump == "both") {
      if (db->GetProperty("pmblade.stats.prometheus", &dump)) {
        printf("%s", dump.c_str());
      }
    }
    if (stats_dump != "json" && stats_dump != "prometheus" &&
        stats_dump != "both") {
      fprintf(stderr, "--stats_dump expects json|prometheus|both\n");
      return 1;
    }
  }
  return InterruptRequested() ? 128 + InterruptSignal() : 0;
}
