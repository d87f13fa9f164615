// Table-driven sweeps: benchmark_kv's per-design-point measurements
// (write_scaling, compaction_parallel, policy_sweep, read_skew). A sweep is
// a named entry: its output file, the engines it runs on, its points (a
// label plus the BenchEnvOptions each one overrides) and one body that runs
// the measurement phases on a fresh engine and returns one JSON row and one
// table row. RunSweep owns everything the sweeps share: saving and
// restoring the options, a fresh engine per point and repetition, the
// interrupt checks, the JSON array and the table, and reopening the
// caller's engine afterwards. Phase and TimeOps, the per-op timing the
// sweep bodies use, also time benchmark_kv's db_bench loops.

#ifndef PMBLADE_BENCHUTIL_SWEEP_H_
#define PMBLADE_BENCHUTIL_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "benchutil/reporter.h"
#include "benchutil/runner.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace pmblade {
namespace bench {

/// The benchmark_kv flags a sweep reads.
struct SweepParams {
  uint64_t num = 10000;
  size_t value_size = 256;
  double zipf = 0.99;
  int writers = 1;
  int compaction_workers = 4;
  bool sync_writes = false;
  Clock* clock = SystemClock();
};

struct SweepPoint {
  std::string label;
  /// This point's overrides, applied on top of the sweep's own.
  std::function<void(BenchEnvOptions*)> apply;
  /// A number the body reads: the writer or worker count, or the point's
  /// position in the sweep.
  int value = 0;
  /// The point's JSON fields extend the previous point's row instead of
  /// starting a new one (write_scaling's PM-WAL half of a writer count).
  bool extends_row = false;
};

/// What one fresh engine measured at one point.
struct SweepRun {
  JsonObject json;
  std::vector<std::string> row;
  /// With Sweep::reps > 1 the run with the lowest cost is kept.
  double cost = 0;
};

struct Sweep {
  std::string name;
  std::string output;  // JSON file the rows are written to
  /// Engine configs the sweep runs on; empty accepts any.
  std::vector<EngineConfig> engines;
  /// Fresh engines per point; the cheapest run is kept (best-of-N).
  int reps = 1;
  std::vector<std::string> columns;
  /// Overrides shared by every point.
  std::function<void(BenchEnvOptions*)> setup;
  std::vector<SweepPoint> points;
  /// Measures one point on the freshly opened engine in `env`.
  std::function<SweepRun(const SweepPoint&, BenchEnv*)> run;
  /// The table title, from the options after `setup`.
  std::function<std::string(const BenchEnvOptions&)> title;
};

/// The four benchmark_kv sweeps for `params`, by name.
std::vector<Sweep> BenchmarkSweeps(const SweepParams& params);

/// Runs `sweep` on env's engine config, prints its table, writes its JSON
/// rows to `sweep.output` (after an interrupt, the points measured before
/// it; a repetition the interrupt cut short is discarded), then restores
/// the options and reopens a fresh engine with them. InvalidArgument when
/// the config is not one the sweep runs on; an open failure is returned.
Status RunSweep(const Sweep& sweep, BenchEnv* env);

/// One timed phase: how many ops ran, for how long, and each op's latency.
struct Phase {
  uint64_t ops = 0;
  uint64_t nanos = 0;
  Histogram latency;

  double OpsPerSec() const { return nanos > 0 ? ops * 1e9 / nanos : 0; }
  double P99Micros() const { return latency.Percentile(99) / 1000.0; }
  /// {"<prefix>ops", "<prefix>ops_per_sec", "<prefix>p99_us"}.
  JsonObject Json(const std::string& prefix = "") const {
    return JsonObject()
        .Int(prefix + "ops", ops)
        .Num(prefix + "ops_per_sec", OpsPerSec(), 0)
        .Num(prefix + "p99_us", P99Micros(), 2);
  }
  void Report(const std::string& name) const {
    ReportOps(name, ops, nanos, latency);
  }
};

/// Runs op(thread, i) for i < per_thread on each of `threads` threads (on
/// the caller when there is one), timing every call. An interrupt stops
/// each thread after its current op, and the phase keeps what ran.
Phase TimeOps(Clock* clock, int threads, uint64_t per_thread,
              const std::function<void(int, uint64_t)>& op);

/// Exits the process when an engine operation fails (NotFound is a normal
/// read outcome): a bench number measured over failed ops is meaningless.
void CheckOp(const Status& s);

}  // namespace bench
}  // namespace pmblade

#endif  // PMBLADE_BENCHUTIL_SWEEP_H_
