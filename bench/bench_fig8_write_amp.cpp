// Fig. 8 — the compaction models' effect on write amplification and on
// keeping warm data in PM.
//
// (a) Write amplification after a fixed insert/update volume under several
//     key distributions, for RocksDB-style / PMBlade-PM / PMBlade. The
//     paper (200 GB, 1 KB values, uniform): RocksDB 2573 GB, PMBlade-PM
//     825 GB, PMBlade 359 GB of which only 158 GB hit the SSD — internal
//     compaction absorbs the redundancy on PM.
//
// (b) Fraction of reads served from PM under a 50/50 mix, by skew, for
//     PMBlade (cost-model retention, Eq. 3) vs PMBlade-PM (periodic whole-
//     level-0 compaction). Paper: the cost model keeps hot partitions in
//     PM; +34 points even at skew 0.
//
// Flags: --write_bytes (default 12 MiB), --value_size (default 512),
//        --ops (default 8000).

#include <algorithm>
#include <string>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/reporter.h"
#include "benchutil/runner.h"
#include "benchutil/workload.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

namespace {

BenchEnvOptions MakeEnvOptions() {
  BenchEnvOptions eopts;
  eopts.root = "/tmp/pmblade_bench_fig8";
  eopts.memtable_bytes = 128 << 10;
  eopts.inject_ssd_latency = false;  // byte accounting only: run fast
  eopts.inject_pm_latency = false;
  eopts.l0_budget_large = 4 << 20;  // force regular major compactions
  KeySpec spec;
  spec.num_keys = 20000;
  KeyGenerator keys(spec);
  eopts.partition_boundaries = keys.PartitionBoundaries(8);
  return eopts;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t write_bytes = flags.Int("write_bytes", 12 << 20);
  const size_t value_size = flags.Int("value_size", 512);
  const uint64_t ops = flags.Int("ops", 8000);

  // ---- (a) write amplification ----
  {
    TablePrinter out({"distribution", "engine", "user bytes", "PM written",
                      "SSD written", "WA (total)", "WA (SSD)"});
    for (double skew : {0.0, 0.6, 0.99}) {
      for (EngineConfig config :
           {EngineConfig::kRocksStyle, EngineConfig::kPmBladePm,
            EngineConfig::kPmBlade}) {
        BenchEnv env(MakeEnvOptions());
        KvEngine* engine = nullptr;
        Status s = env.OpenEngine(config, &engine);
        if (!s.ok()) {
          fprintf(stderr, "open: %s\n", s.ToString().c_str());
          return 1;
        }

        KeySpec spec;
        spec.num_keys = 20000;
        spec.distribution =
            skew == 0.0 ? Distribution::kUniform : Distribution::kZipfian;
        spec.zipf_theta = skew;
        spec.seed = 31;
        KeyGenerator keys(spec);
        ValueGenerator values(value_size);

        uint64_t written = 0;
        while (written < write_bytes) {
          uint64_t index = keys.NextIndex();
          std::string value = values.For(index);
          s = engine->Put(keys.KeyAt(index), value);
          if (!s.ok()) {
            fprintf(stderr, "put: %s\n", s.ToString().c_str());
            return 1;
          }
          written += value.size() + 16;
        }
        (void)engine->Flush();

        uint64_t user = env.UserBytesWritten();
        uint64_t pm = env.PmBytesWritten();
        uint64_t ssd = env.SsdBytesWritten();
        char label[16];
        snprintf(label, sizeof(label), "%.2f", skew);
        out.AddRow({skew == 0.0 ? "uniform" : label,
                    EngineConfigName(config), TablePrinter::FmtBytes(user),
                    TablePrinter::FmtBytes(pm), TablePrinter::FmtBytes(ssd),
                    TablePrinter::Fmt(
                        static_cast<double>(pm + ssd) / user, 2) + "x",
                    TablePrinter::Fmt(static_cast<double>(ssd) / user, 2) +
                        "x"});
      }
    }
    out.Print("Fig. 8(a): write amplification by distribution and engine");
    printf("\npaper shape: PMBlade << PMBlade-PM << RocksDB in total WA, "
           "and most of PMBlade's\nremaining amplification lands on PM, not "
           "the SSD\n");
  }

  // ---- (b) PM hit ratio of reads ----
  {
    // One run of the mixed phase on a fresh engine; returns the hit ratio
    // in percent, or -1 on an engine error.
    auto hit_ratio = [&](EngineConfig config, double skew) -> double {
      BenchEnvOptions eopts = MakeEnvOptions();
      eopts.root = "/tmp/pmblade_bench_fig8b";
      BenchEnv env(eopts);
      KvEngine* engine = nullptr;
      Status s = env.OpenEngine(config, &engine);
      if (!s.ok()) {
        fprintf(stderr, "open: %s\n", s.ToString().c_str());
        return -1;
      }

      KeySpec spec;
      spec.num_keys = 20000;
      spec.distribution =
          skew == 0.0 ? Distribution::kUniform : Distribution::kZipfian;
      spec.zipf_theta = skew;
      spec.seed = 77;
      KeyGenerator keys(spec);
      ValueGenerator values(value_size);
      Random rng(13);

      // Preload so reads have something to find, then quiesce: the flush
      // drains the compaction scheduler, so no major compaction from the
      // preload races the mixed phase.
      for (uint64_t i = 0; i < spec.num_keys; i += 2) {
        (void)engine->Put(keys.KeyAt(i), values.For(i));
      }
      s = engine->Flush();
      if (!s.ok()) {
        fprintf(stderr, "flush: %s\n", s.ToString().c_str());
        return -1;
      }
      // The registry's read counters are monotonic: the mixed phase's hit
      // ratio is their growth across it.
      auto fast_reads = [&env] {
        return env.Metric("pmblade.reads.memtable") +
               env.Metric("pmblade.reads.pm_l0");
      };
      const uint64_t fast_before = fast_reads();
      const uint64_t ssd_before = env.Metric("pmblade.reads.ssd_l1");

      for (uint64_t op = 0; op < ops; ++op) {
        uint64_t index = keys.NextIndex();
        if (rng.OneIn(2)) {
          s = engine->Put(keys.KeyAt(index), values.For(index));
        } else {
          std::string value;
          Status rs = engine->Get(keys.KeyAt(index), &value);
          if (!rs.ok() && !rs.IsNotFound()) s = rs;
        }
        if (!s.ok()) {
          fprintf(stderr, "op: %s\n", s.ToString().c_str());
          return -1;
        }
      }
      const double fast = static_cast<double>(fast_reads() - fast_before);
      const double answered =
          fast + static_cast<double>(env.Metric("pmblade.reads.ssd_l1") -
                                     ssd_before);
      return answered > 0 ? fast / answered * 100.0 : 0.0;
    };

    // PMBlade-PM's own majors still race the mixed phase, so each point is
    // the median of three runs, printed with their min-max.
    TablePrinter out({"data skew", "PMBlade-PM hit%", "PMBlade hit%"});
    for (double skew : {0.0, 0.2, 0.4, 0.6, 0.8, 0.99}) {
      std::vector<std::string> row = {TablePrinter::Fmt(skew, 2)};
      for (EngineConfig config :
           {EngineConfig::kPmBladePm, EngineConfig::kPmBlade}) {
        std::vector<double> runs;
        for (int rep = 0; rep < 3; ++rep) {
          const double hit = hit_ratio(config, skew);
          if (hit < 0) return 1;
          runs.push_back(hit);
        }
        std::sort(runs.begin(), runs.end());
        row.push_back(TablePrinter::Fmt(runs[runs.size() / 2], 1) + " (" +
                      TablePrinter::Fmt(runs.front(), 1) + "-" +
                      TablePrinter::Fmt(runs.back(), 1) + ")");
      }
      out.AddRow(row);
    }
    out.Print("Fig. 8(b): share of reads served from PM (or memtable)");
    printf("\npaper shape: the cost model (Eq. 3) retains hot partitions in "
           "PM, so PMBlade's hit\nratio beats the periodic whole-level "
           "policy at every skew and both rise with skew\n");
  }
  return 0;
}
