// Table IV — PM space released by internal compaction, by data skew. The
// paper writes a fixed volume of updates (20 GB), triggers internal
// compaction manually, and measures the space freed: 11.6 GB at uniform
// (skew 0.0) rising to 16.2 GB (~80% of the used PM) at skew 1.0, because
// skewed updates concentrate redundancy in the unsorted PM tables.
//
// Scaled run: fixed write volume through pmblade::DB (internal compaction
// disabled during the load), then DB::CompactLevel0() and the PM-usage
// delta.
//
// Flags: --write_bytes (default 8 MiB), --value_size (default 256).

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/workload.h"
#include "core/db.h"
#include "core/db_impl.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t write_bytes = flags.Int("write_bytes", 8 << 20);
  const size_t value_size = flags.Int("value_size", 256);

  TablePrinter out({"Data skew", "PM used before", "PM used after",
                    "Space released", "released %"});

  for (double skew : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::string dbname = "/tmp/pmblade_bench_table4";
    Options options;
    DestroyDB(options, dbname);
    options.memtable_bytes = 256 << 10;
    options.pm_pool_capacity = 256ull << 20;
    options.pm_latency.inject_latency = false;
    options.wal_in_pm = false;  // the paper's engine logs to the SSD
    // Hold everything in level-0: no automatic compaction of any kind.
    options.enable_cost_model = false;
    options.l0_table_trigger = 1u << 30;
    options.cost.tau_m = 1ull << 40;

    std::unique_ptr<DB> db;
    Status s = DB::Open(options, dbname, &db);
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }

    // Update-only load: fixed byte volume, skew-controlled key choice.
    const uint64_t num_keys = 20000;
    KeySpec spec;
    spec.prefix = "k";
    spec.num_keys = num_keys;
    spec.distribution =
        skew == 0.0 ? Distribution::kUniform : Distribution::kZipfian;
    spec.zipf_theta = skew;
    spec.seed = 99;
    KeyGenerator keys(spec);
    ValueGenerator values(value_size);

    uint64_t written = 0;
    while (written < write_bytes) {
      uint64_t index = keys.NextIndex();
      std::string value = values.For(index);
      s = db->Put(WriteOptions(), keys.KeyAt(index), value);
      if (!s.ok()) {
        fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      written += value.size() + 16;
    }
    s = db->FlushMemTable();
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }

    auto* impl = static_cast<DBImpl*>(db.get());
    uint64_t before = impl->pm_pool()->UsedBytes();
    s = db->CompactLevel0();  // manual internal compaction
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    uint64_t after = impl->pm_pool()->UsedBytes();
    uint64_t released = before > after ? before - after : 0;

    out.AddRow({TablePrinter::Fmt(skew, 1), TablePrinter::FmtBytes(before),
                TablePrinter::FmtBytes(after),
                TablePrinter::FmtBytes(released),
                TablePrinter::Fmt(100.0 * released / std::max<uint64_t>(
                                                         before, 1),
                                  1) +
                    "%"});

    db.reset();
    DestroyDB(options, dbname);
  }

  out.Print("Table IV: PM space released by internal compaction vs skew");
  printf("\npaper shape: released space grows with skew (more duplicate "
         "versions to merge away);\n~80%% of used PM released at skew 1.0\n");
  return 0;
}
