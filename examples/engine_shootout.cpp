// Engine shootout: drive the same workload against PM-Blade and the two
// baseline engines through the common KvEngine interface, on shared device
// simulators, and compare the outcome.
//
//   ./engine_shootout [ops] [value_size]
//
// A compact, self-contained version of what the bench harnesses do — useful
// as a template for evaluating your own workload against the three engines.
// The workload never deletes, so after the mixed phase every loaded key must
// read back its value and a scan must count exactly the loaded keys; the
// example exits non-zero when an engine loses or corrupts a key.

#include <cstdio>
#include <memory>

#include "benchutil/reporter.h"
#include "benchutil/runner.h"
#include "benchutil/workload.h"
#include "util/clock.h"

using namespace pmblade;        // NOLINT: example brevity
using namespace pmblade::bench; // NOLINT

int main(int argc, char** argv) {
  const uint64_t ops = argc > 1 ? strtoull(argv[1], nullptr, 10) : 6000;
  const size_t value_size = argc > 2 ? strtoull(argv[2], nullptr, 10) : 256;

  TablePrinter out({"engine", "load time", "mixed-phase time", "avg get",
                    "ssd written", "pm written"});

  for (EngineConfig config :
       {EngineConfig::kRocksStyle, EngineConfig::kMatrixKvSmall,
        EngineConfig::kPmBlade}) {
    BenchEnvOptions eopts;
    eopts.root = "/tmp/pmblade_shootout";
    eopts.memtable_bytes = 256 << 10;
    KeySpec boundary_spec;
    boundary_spec.num_keys = ops;
    eopts.partition_boundaries =
        KeyGenerator(boundary_spec).PartitionBoundaries(8);

    BenchEnv env(eopts);
    KvEngine* engine = nullptr;
    Status s = env.OpenEngine(config, &engine);
    if (!s.ok()) {
      fprintf(stderr, "open %s: %s\n", EngineConfigName(config),
              s.ToString().c_str());
      return 1;
    }

    KeySpec spec;
    spec.num_keys = ops;
    spec.zipf_theta = 0.9;
    KeyGenerator keys(spec);
    ValueGenerator values(value_size);
    Clock* clock = SystemClock();

    // Load phase: populate every key once.
    uint64_t load_start = clock->NowNanos();
    for (uint64_t i = 0; i < ops; ++i) {
      s = engine->Put(keys.KeyAt(i), values.For(i));
      if (!s.ok()) {
        fprintf(stderr, "put: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    uint64_t load_nanos = clock->NowNanos() - load_start;

    // Mixed phase: zipfian 50/50 read/update.
    Random rng(11);
    uint64_t get_nanos = 0, gets = 0;
    uint64_t mixed_start = clock->NowNanos();
    for (uint64_t i = 0; i < ops; ++i) {
      uint64_t index = keys.NextIndex();
      if (rng.OneIn(2)) {
        std::string value;
        uint64_t t0 = clock->NowNanos();
        Status rs = engine->Get(keys.KeyAt(index), &value);
        get_nanos += clock->NowNanos() - t0;
        ++gets;
        if (!rs.ok()) {
          fprintf(stderr, "get: %s\n", rs.ToString().c_str());
          return 1;
        }
      } else {
        s = engine->Put(keys.KeyAt(index), values.For(index));
        if (!s.ok()) {
          fprintf(stderr, "put: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }
    uint64_t mixed_nanos = clock->NowNanos() - mixed_start;

    // Check: every loaded key holds its value, and nothing else exists.
    uint64_t wrong = 0;
    for (uint64_t i = 0; i < ops; ++i) {
      std::string value;
      if (!engine->Get(keys.KeyAt(i), &value).ok() ||
          value != values.For(i)) {
        ++wrong;
      }
    }
    uint64_t scanned = 0;
    std::unique_ptr<Iterator> it(engine->NewScanIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++scanned;
    if (wrong != 0 || scanned != ops || !it->status().ok()) {
      fprintf(stderr,
              "%s: %llu of %llu keys missing or wrong, scan counted %llu "
              "(%s)\n",
              EngineConfigName(config), static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(scanned),
              it->status().ToString().c_str());
      return 1;
    }
    it.reset();

    out.AddRow({EngineConfigName(config), TablePrinter::FmtNanos(load_nanos),
                TablePrinter::FmtNanos(mixed_nanos),
                TablePrinter::FmtNanos(gets ? double(get_nanos) / gets : 0),
                TablePrinter::FmtBytes(env.SsdBytesWritten()),
                TablePrinter::FmtBytes(env.PmBytesWritten())});
  }

  out.Print("engine shootout (same workload, shared device models)");
  return 0;
}
