// Fig. 9 — the coroutine-based major compaction vs two baselines, across
// value sizes (small values = CPU-heavier merge, large values = I/O-heavier
// transfer):
//   (a) CPU utilization   — PMBlade > Coroutine > Thread,
//   (b) I/O utilization   — PMBlade near 100% for larger values,
//   (c) I/O latency       — PMBlade lowest (the q_flush gate avoids bursts),
//   (d) compaction duration — PMBlade shortest.
//
// Configuration mirrors the paper: 4 concurrent compaction tasks, 2 worker
// cores, max I/O concurrency q = 4. An extra sweep over q exercises the
// design-choice ablation DESIGN.md calls out.
//
// Flags: --data_bytes (default 4 MiB), --q (default 4), --workers
// (default 2), --concurrency (default 4), --sweep_q (default true).

#include <algorithm>

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/workload.h"
#include "compaction/major_compaction.h"
#include "memtable/internal_key.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table_builder.h"
#include "util/bloom.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

namespace {

struct RunResult {
  double cpu_util = 0;
  double io_util = 0;
  double io_latency_nanos = 0;
  uint64_t duration_nanos = 0;
};

RunResult RunSingle(CompactionEngine engine, int concurrency, int workers,
                    int q, const std::vector<L0TableRef>& tables,
                    L0TableFactory* factory) {
  SsdModelOptions mopts;  // fresh model per run: clean stats
  SsdModel model(mopts);

  MajorCompactionOptions copts;
  copts.engine = engine;
  copts.worker_threads = workers;
  copts.max_io_q = q;
  copts.read_block_bytes = 32 << 10;
  copts.write_block_bytes = 32 << 10;
  MajorCompactor compactor(PosixEnv(), &model, factory, copts);

  std::vector<CompactionSubtaskInput> subtasks;
  for (int t = 0; t < concurrency; ++t) {
    CompactionSubtaskInput sub;
    L0TableRef table = tables[t];
    sub.ssd_input_fraction = 0.5;
    sub.make_input = [table]() {
      Iterator* it = table->NewIterator();
      it->SeekToFirst();
      return it;
    };
    subtasks.push_back(sub);
  }

  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats stats;
  Status s = compactor.Run(subtasks, &outputs, &stats);
  if (!s.ok()) {
    fprintf(stderr, "compaction: %s\n", s.ToString().c_str());
    exit(1);
  }
  for (const auto& meta : outputs) PosixEnv()->RemoveFile(meta.path);

  RunResult result;
  result.cpu_util = std::min(stats.CpuUtilization(workers), 1.0);
  result.io_util = std::min(stats.IoUtilization(), 1.0);
  result.io_latency_nanos = stats.io_latency.Average();
  result.duration_nanos = stats.wall_nanos;
  return result;
}

/// Best of 3 runs (shortest wall time) tames OS scheduling noise on
/// low-core-count machines.
RunResult RunOnce(CompactionEngine engine, int concurrency, int workers,
                  int q, const std::vector<L0TableRef>& tables,
                  L0TableFactory* factory) {
  RunResult best;
  for (int run = 0; run < 3; ++run) {
    RunResult r =
        RunSingle(engine, concurrency, workers, q, tables, factory);
    if (run == 0 || r.duration_nanos < best.duration_nanos) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t data_bytes = flags.Int("data_bytes", 4 << 20);
  const int q = static_cast<int>(flags.Int("q", 4));
  const int workers = static_cast<int>(flags.Int("workers", 2));
  const int concurrency = static_cast<int>(flags.Int("concurrency", 4));
  const bool sweep_q = flags.Bool("sweep_q", true);

  std::string dir = "/tmp/pmblade_bench_fig9";
  PosixEnv()->RemoveDirRecursively(dir);
  PosixEnv()->CreateDir(dir);

  PmPoolOptions popts;
  popts.capacity = 1ull << 30;
  popts.latency.inject_latency = false;
  std::unique_ptr<PmPool> pool;
  Status s = PmPool::Open(dir + "/pool.pm", popts, &pool);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  InternalKeyComparator icmp(BytewiseComparator());
  BloomFilterPolicy policy(10);

  L0FactoryOptions fopts;
  fopts.layout = L0Layout::kSstable;
  fopts.icmp = &icmp;
  fopts.filter_policy = &policy;
  fopts.ssd_dir = dir;
  L0TableFactory factory(fopts, pool.get(), PosixEnv());

  struct EngineSpec {
    const char* name;
    CompactionEngine engine;
  };
  const EngineSpec engines[] = {
      {"Thread", CompactionEngine::kThread},
      {"Coroutine", CompactionEngine::kCoroutine},
      {"PMBlade", CompactionEngine::kPmBlade},
  };

  TablePrinter cpu({"value size", "Thread", "Coroutine", "PMBlade"});
  TablePrinter io({"value size", "Thread", "Coroutine", "PMBlade"});
  TablePrinter lat({"value size", "Thread", "Coroutine", "PMBlade"});
  TablePrinter dur({"value size", "Thread", "Coroutine", "PMBlade"});

  for (size_t value_size : {32, 64, 128, 256, 512}) {
    // Build `concurrency` disjoint input tables at this value size.
    uint64_t per_table_entries =
        std::max<uint64_t>(data_bytes / concurrency / (value_size + 32), 64);
    ValueGenerator values(value_size);
    std::vector<L0TableRef> tables;
    for (int t = 0; t < concurrency; ++t) {
      PmTableBuilder builder(pool.get(), PmTableOptions{});
      for (uint64_t i = 0; i < per_table_entries; ++i) {
        char key[48];
        snprintf(key, sizeof(key), "t|task%02d|key%012llu", t,
                 static_cast<unsigned long long>(i));
        std::string ikey;
        AppendInternalKey(&ikey, key, 10, kTypeValue);
        builder.Add(ikey, values.For(i));
      }
      std::shared_ptr<PmTable> table;
      s = builder.Finish(&table);
      if (!s.ok()) {
        fprintf(stderr, "build: %s\n", s.ToString().c_str());
        return 1;
      }
      tables.push_back(table);
    }

    char label[32];
    snprintf(label, sizeof(label), "%zu B", value_size);
    std::vector<std::string> cpu_row = {label}, io_row = {label},
                             lat_row = {label}, dur_row = {label};
    for (const auto& spec : engines) {
      RunResult r =
          RunOnce(spec.engine, concurrency, workers, q, tables, &factory);
      cpu_row.push_back(TablePrinter::Fmt(r.cpu_util * 100, 1) + "%");
      io_row.push_back(TablePrinter::Fmt(r.io_util * 100, 1) + "%");
      lat_row.push_back(TablePrinter::FmtNanos(r.io_latency_nanos));
      dur_row.push_back(TablePrinter::FmtNanos(r.duration_nanos));
    }
    cpu.AddRow(cpu_row);
    io.AddRow(io_row);
    lat.AddRow(lat_row);
    dur.AddRow(dur_row);

    for (auto& t : tables) t->Destroy();
  }

  cpu.Print("Fig. 9(a): CPU utilization during major compaction");
  io.Print("Fig. 9(b): I/O device utilization during major compaction");
  lat.Print("Fig. 9(c): I/O latency during major compaction");
  dur.Print("Fig. 9(d): major compaction duration");
  printf("\npaper shape: PMBlade > Coroutine > Thread on CPU util; PMBlade "
         "I/O util -> ~100%%\nfor larger values; PMBlade lowest I/O latency "
         "and shortest duration\n");

  if (sweep_q) {
    // Ablation: q sweep for the PMBlade engine at 128 B values.
    uint64_t per_table_entries =
        std::max<uint64_t>(data_bytes / concurrency / (128 + 32), 64);
    ValueGenerator values(128);
    std::vector<L0TableRef> tables;
    for (int t = 0; t < concurrency; ++t) {
      PmTableBuilder builder(pool.get(), PmTableOptions{});
      for (uint64_t i = 0; i < per_table_entries; ++i) {
        char key[48];
        snprintf(key, sizeof(key), "t|task%02d|key%012llu", t,
                 static_cast<unsigned long long>(i));
        std::string ikey;
        AppendInternalKey(&ikey, key, 10, kTypeValue);
        builder.Add(ikey, values.For(i));
      }
      std::shared_ptr<PmTable> table;
      (void)builder.Finish(&table);
      tables.push_back(table);
    }
    TablePrinter sweep({"q", "duration", "io latency", "io util"});
    for (int qv : {1, 2, 4, 8, 16}) {
      RunResult r = RunOnce(CompactionEngine::kPmBlade, concurrency, workers,
                            qv, tables, &factory);
      sweep.AddRow({std::to_string(qv), TablePrinter::FmtNanos(
                                            r.duration_nanos),
                    TablePrinter::FmtNanos(r.io_latency_nanos),
                    TablePrinter::Fmt(r.io_util * 100, 1) + "%"});
    }
    sweep.Print("Ablation: q (max concurrent I/O) sweep, PMBlade engine");
    for (auto& t : tables) t->Destroy();
  }

  PosixEnv()->RemoveDirRecursively(dir);
  return 0;
}
