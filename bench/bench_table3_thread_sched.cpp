// Table III — resource utilization of thread-scheduled compaction. The
// paper runs N compaction tasks, one OS thread each, on a single core, and
// shows that threads cannot keep either the CPU or the I/O device busy:
// speedup saturates near 1.9x, both devices stay ~30-47% idle, and I/O
// latency climbs (3.9 ms -> 10.9 ms for 1 -> 5 threads) because bursty
// concurrent I/Os queue against each other.
//
// We run the thread compaction engine with N = 1..5 subtasks/threads on a
// shared SSD model and report the same four rows.
//
// Flags: --entries_per_task (default 12000), --value_size (default 256).

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

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t entries_per_task = flags.Int("entries_per_task", 12000);
  const size_t value_size = flags.Int("value_size", 256);

  std::string dir = "/tmp/pmblade_bench_table3";
  PosixEnv()->RemoveDirRecursively(dir);
  PosixEnv()->CreateDir(dir);

  PmPoolOptions popts;
  popts.capacity = 512ull << 20;
  popts.latency.inject_latency = false;  // focus on SSD behaviour
  std::unique_ptr<PmPool> pool;
  Status s = PmPool::Open(dir + "/pool.pm", popts, &pool);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  InternalKeyComparator icmp(BytewiseComparator());
  BloomFilterPolicy policy(10);
  ValueGenerator values(value_size);

  L0FactoryOptions fopts;
  fopts.layout = L0Layout::kSstable;
  fopts.icmp = &icmp;
  fopts.filter_policy = &policy;
  fopts.ssd_dir = dir;
  L0TableFactory factory(fopts, pool.get(), PosixEnv());

  // Pre-build one PM table per potential task (disjoint ranges).
  auto build_table = [&](int task) {
    PmTableBuilder builder(pool.get(), PmTableOptions{});
    for (uint64_t i = 0; i < entries_per_task; ++i) {
      char key[48];
      snprintf(key, sizeof(key), "t|task%02d|key%012llu", task,
               static_cast<unsigned long long>(i));
      std::string ikey;
      AppendInternalKey(&ikey, key, 10, kTypeValue);
      builder.Add(ikey, values.For(i));
    }
    std::shared_ptr<PmTable> table;
    Status bs = builder.Finish(&table);
    if (!bs.ok()) {
      fprintf(stderr, "build: %s\n", bs.ToString().c_str());
      exit(1);
    }
    return table;
  };
  std::vector<L0TableRef> tables;
  for (int t = 0; t < 5; ++t) tables.push_back(build_table(t));

  std::vector<std::string> row_speedup = {"Time speed up"};
  std::vector<std::string> row_cpu = {"CPU idleness"};
  std::vector<std::string> row_io = {"I/O device idleness"};
  std::vector<std::string> row_lat = {"I/O latency (avg)"};
  double wall_per_task_1thread = 0;

  for (int threads = 1; threads <= 5; ++threads) {
    SsdModelOptions mopts;  // defaults; queue penalty drives the latency row
    SsdModel model(mopts);

    MajorCompactionOptions copts;
    copts.engine = CompactionEngine::kThread;
    copts.read_block_bytes = 32 << 10;
    copts.write_block_bytes = 32 << 10;
    MajorCompactor compactor(PosixEnv(), &model, &factory, copts);

    std::vector<CompactionSubtaskInput> subtasks;
    for (int t = 0; t < threads; ++t) {
      CompactionSubtaskInput sub;
      L0TableRef table = tables[t];
      sub.ssd_input_fraction = 0.5;  // half the input re-read from the SSD
      sub.make_input = [table]() {
        Iterator* it = table->NewIterator();
        it->SeekToFirst();
        return it;
      };
      subtasks.push_back(sub);
    }

    std::vector<CompactionOutputMeta> outputs;
    MajorCompactionStats stats;
    s = compactor.Run(subtasks, &outputs, &stats);
    if (!s.ok()) {
      fprintf(stderr, "compaction: %s\n", s.ToString().c_str());
      return 1;
    }
    for (const auto& meta : outputs) PosixEnv()->RemoveFile(meta.path);

    double wall_per_task = static_cast<double>(stats.wall_nanos) / threads;
    if (threads == 1) wall_per_task_1thread = wall_per_task;
    double speedup = wall_per_task_1thread / wall_per_task;
    double cpu_idle = 1.0 - stats.CpuUtilization(/*cores=*/1);
    double io_idle = 1.0 - stats.IoUtilization();
    if (cpu_idle < 0) cpu_idle = 0;
    if (io_idle < 0) io_idle = 0;
    double avg_latency = stats.io_latency.Average();

    row_speedup.push_back(TablePrinter::Fmt(speedup, 2) + "x");
    row_cpu.push_back(TablePrinter::Fmt(cpu_idle * 100, 1) + "%");
    row_io.push_back(TablePrinter::Fmt(io_idle * 100, 1) + "%");
    row_lat.push_back(TablePrinter::FmtNanos(avg_latency));
  }

  TablePrinter out({"The number of threads", "1", "2", "3", "4", "5"});
  out.AddRow(row_speedup);
  out.AddRow(row_cpu);
  out.AddRow(row_io);
  out.AddRow(row_lat);
  out.Print("Table III: resource utilization of compaction with threads");
  printf("\npaper shape: speedup saturates well below N; CPU and I/O stay "
         "significantly idle;\nI/O latency grows with thread count "
         "(queueing)\n");

  for (auto& t : tables) t->Destroy();
  PosixEnv()->RemoveDirRecursively(dir);
  return 0;
}
