// MemoryArbiter: the feedback loop that re-divides the MemoryBudget.
//
// Policy (marginal-utility style):
//   * Every `interval_ms` the arbiter snapshots cumulative engine counters
//     (block-cache hits/misses, bloom checks/negatives/false positives,
//     flush count, write slowdowns/stalls, reads by source, write count)
//     and works on the WINDOW DELTAS, so decisions track the current
//     workload, not process-lifetime averages.
//   * Each component gets a pressure score in [0, 1] — its share-weighted
//     miss rate, i.e. how often the workload paid because that component
//     was too small:
//       memtable:    write_share · backpressure rate (slowdowns, stalls and
//                    flush churn per write)
//       block cache: read_share · cache miss ratio
//       keep set:    read_share · fraction of reads falling through to SSD
//                    level-1 (Eq. 3 retained too little on PM)
//   * The grant goes to the highest-scoring component, taken from the
//     lowest-scoring one, kStepFraction (5%) of the total per tick —
//     but only when the winner beats the loser by the kHysteresis factor
//     (1.3, so a balanced system does not oscillate) and the window saw at
//     least kMinOpsPerTick (64) operations (so an idle system does not
//     drift on noise).
//   * Marginal utility: after each grant the arbiter measures whether the
//     winner's pressure actually dropped and keeps an EWMA of that gain
//     per component. The gain scales the component's future score, so
//     budget flows toward components whose last delta bought the most
//     misses avoided, and a component that stopped responding stops
//     attracting budget even while its raw pressure stays high.
//
// Every rebalance emits a kMemRebalance trace event carrying the inputs
// and the decision, increments pmblade.mem.rebalances, and pushes the new
// targets through the apply callback (atomic memtable quota,
// BlockCache::SetCapacity, CostModel::set_dynamic_tau_t).
//
// Threading: RebalanceOnce() is serialized by an internal mutex; the
// periodic thread is optional (tests drive RebalanceOnce directly). The
// inputs/apply callbacks must be safe to call from the arbiter thread —
// DBImpl wires them to atomics and internally synchronized structures
// only.

#ifndef PMBLADE_MEM_ARBITER_H_
#define PMBLADE_MEM_ARBITER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "mem/memory_budget.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/logging.h"

namespace pmblade {
namespace mem {

/// Cumulative engine counters the arbiter samples each tick (it diffs
/// consecutive snapshots itself).
struct ArbiterInputs {
  uint64_t reads = 0;           // total point reads
  uint64_t reads_ssd_l1 = 0;    // reads answered from SSD level-1
  uint64_t writes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t bloom_checks = 0;
  uint64_t bloom_negatives = 0;
  uint64_t bloom_false_positives = 0;
  uint64_t flushes = 0;
  uint64_t slowdowns = 0;
  uint64_t stalls = 0;
};

/// The inputs read from an engine's metrics registry (the ShardedDB facade
/// registry yields cross-shard aggregates under the same names); a metric
/// the registry lacks reads as 0.
ArbiterInputs ReadArbiterInputs(const obs::MetricsRegistry& registry);

struct ArbiterOptions {
  uint64_t interval_ms = 250;

  Clock* clock = nullptr;                    // required
  obs::MetricsRegistry* metrics = nullptr;   // optional
  obs::EventBus* events = nullptr;           // optional
  Logger* logger = nullptr;                  // optional
};

class MemoryArbiter {
 public:
  using InputsFn = std::function<ArbiterInputs()>;
  /// Called (from the arbiter thread or RebalanceOnce's caller) for each
  /// component whose target changed.
  using ApplyFn = std::function<void(int component, uint64_t target_bytes)>;

  /// `budget` must outlive the arbiter. Registers pmblade.mem.* metrics
  /// when a registry is supplied.
  MemoryArbiter(const ArbiterOptions& options, MemoryBudget* budget,
                InputsFn inputs_fn, ApplyFn apply_fn);
  ~MemoryArbiter();

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Starts the periodic thread. Idempotent.
  void Start();
  /// Stops and joins the thread. Idempotent; the destructor calls it.
  void Stop();

  /// One deterministic feedback tick: snapshot inputs, score pressures,
  /// maybe transfer one step. Returns true when budget moved. Exposed for
  /// tests; the periodic thread calls exactly this.
  bool RebalanceOnce();

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t rebalances() const {
    return rebalances_.load(std::memory_order_relaxed);
  }

  const MemoryBudget* budget() const { return budget_; }

  /// Budget split + last window's pressures/decision, for
  /// DB::GetProperty("pmblade.mem.json") and the server INFO command.
  std::string ToJson() const;

 private:
  void ThreadLoop();
  /// Pressure scores for the window delta `d` (out[kNumComponents]).
  void ScorePressures(const ArbiterInputs& d, double* out) const;

  ArbiterOptions opts_;
  MemoryBudget* budget_;
  InputsFn inputs_fn_;
  ApplyFn apply_fn_;

  // Tick state (guarded by mu_).
  mutable std::mutex mu_;
  ArbiterInputs last_inputs_;
  bool has_last_inputs_ = false;
  double last_pressure_[kNumComponents] = {0.0, 0.0, 0.0};
  double ewma_gain_[kNumComponents] = {0.0, 0.0, 0.0};
  int last_grant_ = -1;           // component granted by the previous move
  double last_grant_pressure_ = 0.0;
  int last_from_ = -1, last_to_ = -1;
  uint64_t last_moved_bytes_ = 0;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> skipped_ticks_{0};

  obs::Counter* tick_counter_ = nullptr;
  obs::Counter* rebalance_counter_ = nullptr;
  obs::Counter* skipped_counter_ = nullptr;

  // Periodic thread.
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace mem
}  // namespace pmblade

#endif  // PMBLADE_MEM_ARBITER_H_
