// Ablation (the paper's future-work direction, Section VII): re-run the
// level-0 read/write experiment with the PM pool modeling different
// high-capacity memory tiers — Optane DCPMM (the paper's device),
// CXL-attached memory, and local DRAM as an upper bound.
//
// Expectation: the PM-Blade design transfers — every tier keeps the same
// orderings, with absolute level-0 latencies scaling with the tier's
// latency, and the SSD-side write savings unchanged (they come from the
// compaction models, not the device).
//
// Flags: --ops (default 8000), --value_size (default 256).

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/workload.h"
#include "core/db.h"
#include "core/db_impl.h"
#include "util/clock.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t ops = flags.Int("ops", 8000);
  const size_t value_size = flags.Int("value_size", 256);

  struct Tier {
    const char* name;
    PmLatencyOptions latency;
  };
  const Tier tiers[] = {
      {"Optane DCPMM", PmLatencyOptions::Optane()},
      {"CXL memory", PmLatencyOptions::CxlMemory()},
      {"local DRAM", PmLatencyOptions::LocalDram()},
  };

  TablePrinter out({"level-0 tier", "avg get", "avg put", "flush total",
                    "ssd written"});

  for (const Tier& tier : tiers) {
    std::string dbname = "/tmp/pmblade_bench_tier";
    Options options;
    DestroyDB(options, dbname);
    options.memtable_bytes = 128 << 10;
    options.pm_pool_capacity = 128ull << 20;
    options.pm_latency = tier.latency;
    options.wal_in_pm = false;  // the tier under test holds level-0 only
    options.cost.tau_m = 1ull << 40;  // stay in level-0: isolate the tier

    std::unique_ptr<DB> db;
    Status s = DB::Open(options, dbname, &db);
    if (!s.ok()) {
      fprintf(stderr, "open: %s\n", s.ToString().c_str());
      return 1;
    }

    KeySpec spec;
    spec.num_keys = 10000;
    spec.zipf_theta = 0.8;
    KeyGenerator keys(spec);
    ValueGenerator values(value_size);
    Random rng(19);
    Clock* clock = SystemClock();

    uint64_t get_nanos = 0, put_nanos = 0, gets = 0, puts = 0;
    for (uint64_t op = 0; op < ops; ++op) {
      uint64_t index = keys.NextIndex();
      if (rng.OneIn(2)) {
        uint64_t t0 = clock->NowNanos();
        s = db->Put(WriteOptions(), keys.KeyAt(index), values.For(index));
        put_nanos += clock->NowNanos() - t0;
        ++puts;
      } else {
        std::string value;
        uint64_t t0 = clock->NowNanos();
        Status rs = db->Get(ReadOptions(), keys.KeyAt(index), &value);
        get_nanos += clock->NowNanos() - t0;
        ++gets;
        if (!rs.ok() && !rs.IsNotFound()) s = rs;
      }
      if (!s.ok()) {
        fprintf(stderr, "op: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    uint64_t ssd_written =
        static_cast<DBImpl*>(db.get())->ssd_model()->bytes_written();
    uint64_t flushes = 0;
    db->GetProperty("pmblade.flush.count", &flushes);

    out.AddRow({tier.name,
                TablePrinter::FmtNanos(gets ? double(get_nanos) / gets : 0),
                TablePrinter::FmtNanos(puts ? double(put_nanos) / puts : 0),
                std::to_string(flushes),
                TablePrinter::FmtBytes(ssd_written)});
    db.reset();
    DestroyDB(options, dbname);
  }

  out.Print("Ablation: PM-Blade level-0 on different memory tiers "
            "(paper Section VII future work)");
  printf("\nexpected shape: latencies scale with the tier (DRAM < CXL < "
         "Optane); SSD traffic\nis tier-independent (the compaction models "
         "decide what reaches the SSD)\n");
  return 0;
}
