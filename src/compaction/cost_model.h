// Cost-based compaction models (Section IV-C, Equations 1-3).
//
// Eq. 1 (read amplification): trigger internal compaction of partition i
// when the per-second read saving exceeds the amortized compaction cost:
//     n̂ᵢʳ · (nᵢ/2) · I_b  −  I_p / t̂_p  >  0
//
// Eq. 2 (write amplification): once the partition holds >= tau_w bytes,
// trigger internal compaction when deduplicating on PM is cheaper than
// carrying the duplicates through major compaction. The duplicates in PM
// tables are produced by updates, so n_bef − n_aft ≈ nᵢᵘ and n_bef ≈ nᵢʷ:
//     nᵢᵘ · I_s  −  nᵢʷ · I_p  >  0
//
// Eq. 3 (keep warm data): when total level-0 usage reaches tau_m, keep the
// hottest partitions (greedy knapsack on nᵢʳ / sᵢ) within the tau_t budget
// and major-compact the rest (P − Φ).
//
// I_b, I_p, I_s, t̂_p are tunable device scalars (paper: "can be set
// according to devices performance"); nᵢʳ/nᵢʷ/nᵢᵘ reset whenever the
// partition is compacted.

#ifndef PMBLADE_COMPACTION_COST_MODEL_H_
#define PMBLADE_COMPACTION_COST_MODEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmblade {

struct CostModelParams {
  /// Cost to binary-search one PM table (I_b), per-record internal
  /// compaction cost (I_p), per-record major compaction cost (I_s), and the
  /// internal compaction per-record processing time t̂_p. Units are
  /// arbitrary but must be mutually consistent.
  double i_b = 1.0;
  double i_p = 4.0;
  double i_s = 40.0;
  double t_p = 1.0;

  /// Partition size (bytes) before Eq. 2 is evaluated at all.
  uint64_t tau_w = 8ull << 20;
  /// Total level-0 bytes that trigger major compaction (Eq. 3 gate).
  uint64_t tau_m = 64ull << 20;
  /// Level-0 bytes the retained set Φ may occupy after major compaction.
  uint64_t tau_t = 32ull << 20;

  /// Minimum unsorted tables before Eqs. 1-2 can fire. Each internal
  /// compaction rewrites the partition's whole level-0 (sorted run
  /// included), so batching a few unsorted tables per pass keeps PM write
  /// amplification in check.
  uint32_t min_unsorted_for_internal = 4;
};

/// A snapshot of one partition's counters, fed to the model.
struct PartitionCounters {
  uint64_t partition_id = 0;
  uint32_t unsorted_tables = 0;   // n_i
  uint32_t sorted_tables = 0;     // m_i
  uint64_t size_bytes = 0;        // s_i
  uint64_t reads = 0;             // n_i^r  (since last compaction)
  uint64_t writes = 0;            // n_i^w
  uint64_t updates = 0;           // n_i^u
  double reads_per_sec = 0.0;     // n̂_i^r
};

/// The full outcome of evaluating Eqs. 1-2 for one partition: both verdicts
/// plus the intermediate quantities, so observability can report why a
/// compaction was (or was not) triggered.
struct CostDecision {
  bool eq1_triggered = false;   // Eq. 1 (read amplification) fired
  bool eq2_triggered = false;   // Eq. 2 (write amplification) fired
  bool gate_passed = false;     // n_i >= min_unsorted_for_internal
  double eq1_benefit_rate = 0.0;  // n̂ᵢʳ · (nᵢ/2) · I_b
  double eq1_cost_rate = 0.0;     // I_p / t̂_p
  double eq2_ssd_savings = 0.0;   // nᵢᵘ · I_s
  double eq2_pm_cost = 0.0;       // nᵢʷ · I_p

  bool triggered() const { return eq1_triggered || eq2_triggered; }
};

class CostModel {
 public:
  explicit CostModel(const CostModelParams& params) : params_(params) {}

  /// Evaluates Eqs. 1-2 for one partition and returns the verdicts together
  /// with the intermediate benefit/cost terms. Eq. 1 fires when internal
  /// compaction pays for itself in read latency, Eq. 2 when it pays for
  /// itself in SSD write savings (with the s_i >= tau_w gate from
  /// Algorithm 1).
  CostDecision EvaluateInternal(const PartitionCounters& p) const;

  /// Eq. 3 gate: is a major compaction due?
  bool MajorCompactionDue(uint64_t total_l0_bytes) const {
    return total_l0_bytes >= params_.tau_m;
  }

  /// Eq. 3 greedy knapsack: returns the indices (into `partitions`) of the
  /// retained set Φ — hottest first by nᵢʳ/sᵢ until the budget is filled.
  /// Everything not returned is the major-compaction set P − Φ. Callers
  /// read the τ_t `budget` once from base_tau_t(), so the budget they
  /// report is the one used.
  std::vector<size_t> SelectRetained(
      const std::vector<PartitionCounters>& partitions,
      uint64_t budget) const;

  const CostModelParams& params() const { return params_; }

  /// Memory-arbiter hook: a runtime replacement for params().tau_t (the
  /// Eq. 3 keep-set budget). 0 = use the configured value. Atomic so the
  /// arbiter thread can retune it against concurrent compaction checks;
  /// keep-set callers read it through base_tau_t().
  void set_dynamic_tau_t(uint64_t bytes) {
    dynamic_tau_t_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t dynamic_tau_t() const {
    return dynamic_tau_t_.load(std::memory_order_relaxed);
  }
  /// The effective Eq. 3 budget: the arbiter's target when set, else the
  /// configured τ_t.
  uint64_t base_tau_t() const {
    uint64_t dynamic = dynamic_tau_t();
    return dynamic != 0 ? dynamic : params_.tau_t;
  }

 private:
  CostModelParams params_;
  std::atomic<uint64_t> dynamic_tau_t_{0};
};

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_COST_MODEL_H_
