// Ablation: how much does the partitioned LSM (Section III) matter?
// Sweeps the partition count under a skewed 50/50 workload and reports
// read/scan latency and the PM hit ratio after cost-based major compaction.
//
// Expectation: more partitions -> finer-grained Eq. 3 retention (hot data
// separates from cold better) and cheaper scans/seeks (a partition's worth
// of tables per probe), with diminishing returns.
//
// Flags: --ops (default 10000), --value_size (default 256).

#include <memory>

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/runner.h"
#include "benchutil/workload.h"
#include "util/clock.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t ops = flags.Int("ops", 10000);
  const size_t value_size = flags.Int("value_size", 256);

  TablePrinter out({"partitions", "avg get", "avg scan(20)", "pm hit%",
                    "major compactions"});

  for (int partitions : {1, 2, 4, 8, 16}) {
    BenchEnvOptions eopts;
    eopts.root = "/tmp/pmblade_bench_parts";
    eopts.memtable_bytes = 64 << 10;
    eopts.l0_budget_large = 512 << 10;  // tight: forces Eq. 3 decisions
    KeySpec bspec;
    bspec.num_keys = 10000;
    eopts.partition_boundaries =
        KeyGenerator(bspec).PartitionBoundaries(partitions);

    BenchEnv env(eopts);
    KvEngine* engine = nullptr;
    Status s = env.OpenEngine(EngineConfig::kPmBlade, &engine);
    if (!s.ok()) {
      fprintf(stderr, "open: %s\n", s.ToString().c_str());
      return 1;
    }

    KeySpec spec;
    spec.num_keys = 10000;
    spec.zipf_theta = 0.9;
    KeyGenerator keys(spec);
    ValueGenerator values(value_size);
    Random rng(23);
    Clock* clock = SystemClock();

    uint64_t get_nanos = 0, gets = 0, scan_nanos = 0, scans = 0;
    for (uint64_t op = 0; op < ops; ++op) {
      uint64_t index = keys.NextIndex();
      double r = rng.NextDouble();
      if (r < 0.5) {
        s = engine->Put(keys.KeyAt(index), values.For(index));
      } else if (r < 0.9) {
        std::string value;
        uint64_t t0 = clock->NowNanos();
        Status rs = engine->Get(keys.KeyAt(index), &value);
        get_nanos += clock->NowNanos() - t0;
        ++gets;
        if (!rs.ok() && !rs.IsNotFound()) s = rs;
      } else {
        uint64_t t0 = clock->NowNanos();
        std::unique_ptr<Iterator> it(engine->NewScanIterator());
        it->Seek(keys.KeyAt(index));
        for (int j = 0; j < 20 && it->Valid(); ++j) it->Next();
        s = it->status();
        scan_nanos += clock->NowNanos() - t0;
        ++scans;
      }
      if (!s.ok()) {
        fprintf(stderr, "op: %s\n", s.ToString().c_str());
        return 1;
      }
    }

    out.AddRow({std::to_string(partitions),
                TablePrinter::FmtNanos(gets ? double(get_nanos) / gets : 0),
                TablePrinter::FmtNanos(scans ? double(scan_nanos) / scans
                                             : 0),
                TablePrinter::Fmt(env.PmHitRatio() * 100, 1),
                std::to_string(
                    env.Metric("pmblade.compaction.major.count"))});
  }

  out.Print("Ablation: partition count (partitioned LSM, Section III)");
  printf("\nexpected shape: hit ratio and latencies improve with more "
         "partitions (finer Eq. 3\nretention), flattening out past ~8\n");
  return 0;
}
