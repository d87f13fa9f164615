// Pluggable compaction policies: the what/when/where of SSD-side
// compaction, factored out of DBImpl behind one interface (ROADMAP item 4;
// design space per "Constructing and Analyzing the LSM Compaction Design
// Space").
//
// A CompactionPicker owns three decisions:
//   * the eviction trigger, shared across policies: with the cost model on,
//     Eq. 3's τ_m gate and the greedy keep-set knapsack; with it off, the
//     conventional table-count trigger (some partition holds
//     `l0_table_trigger` level-0 tables), which keeps nothing in PM. Either
//     gate also fires on PM-pool pressure,
//   * victim selection + output placement for PM -> SSD eviction
//     (PickEviction): leveled merges a victim's level-0 WITH its whole run
//     stack into one level-1 run (the paper's major compaction,
//     bit-for-bit); tiered and lazy-leveling stack the evicted data as a
//     fresh level-1 run, deferring the rewrite,
//   * SSD shape maintenance (PickMaintenance): merging run-stack blocks
//     that violate the policy's invariant — tiered merges a level's block
//     one level down once `size_ratio` runs pile up (whole-run merges, no
//     intra-level rewrites until the deepest level); lazy-leveling does the
//     same above a single-run (leveled) last level; leveled only ever needs
//     maintenance to collapse a stack inherited from another policy, which
//     is what makes Options::compaction_policy switchable across reopens.
//
// The executor (DBImpl) turns jobs into subcompactions, claims, installs
// and manifest commits; pickers are pure functions over a snapshot of the
// tree and never touch engine state.

#ifndef PMBLADE_COMPACTION_POLICY_COMPACTION_PICKER_H_
#define PMBLADE_COMPACTION_POLICY_COMPACTION_PICKER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "util/status.h"

namespace pmblade {

enum class CompactionPolicyKind { kLeveled = 0, kTiered = 1,
                                  kLazyLeveling = 2 };

/// Policy knobs, copied out of Options at DB open (compaction/policy must
/// not depend on core/).
struct CompactionPolicyOptions {
  std::string policy = "leveled";
  /// T: runs that may stack on one SSD level before the tiered /
  /// lazy-leveling maintenance pass merges the block one level down.
  uint32_t size_ratio = 4;
  /// Deepest SSD level a run may be tagged with (>= 1). A block reaching
  /// this level is merged in place (tiered) or into the single last-level
  /// run (lazy leveling), which bounds space amplification.
  uint32_t max_ssd_levels = 3;
  /// The eviction gate: Eq. 3 (τ_m, then the keep-set) when true; the
  /// conventional trigger, `l0_table_trigger` level-0 tables in some
  /// partition, when false (PMBlade-PM, PMB-P, PMBlade-SSD).
  bool use_cost_model = true;
  uint32_t l0_table_trigger = 8;
};

/// What a picker sees of one partition, snapshotted under the DB mutex.
struct PartitionView {
  PartitionCounters counters;
  uint64_t l0_bytes = 0;
  struct RunView {
    uint32_t level = 1;
    uint64_t bytes = 0;
  };
  /// SSD runs, newest first, level tags non-decreasing with depth.
  std::vector<RunView> runs;
  /// False when another compaction worker holds this partition's claim; the
  /// picker must not choose it.
  bool claimable = true;
};

struct PickContext {
  std::vector<PartitionView> partitions;  // index-aligned with the DB's list
  uint64_t total_l0_bytes = 0;
  /// PM-pool pressure backstop: the pool is nearly full, evict whatever
  /// the gate says.
  bool pool_pressure = false;
};

/// One SSD compaction. Inputs: optionally the partition's whole level-0
/// (unsorted + sorted run), plus the contiguous run-stack block
/// [run_begin, run_end). The merged output replaces that block as a single
/// run tagged `output_level`, installed at position run_begin (the front of
/// the stack for an eviction job with an empty block). include_l0 requires
/// run_begin == 0: level-0 data is newer than every SSD run, so an L0 merge
/// may only absorb a prefix of the stack. Tombstones are dropped by the
/// executor iff the input block reaches the oldest run (run_end == stack
/// size).
struct CompactionJob {
  size_t partition_index = 0;
  bool include_l0 = true;
  size_t run_begin = 0;
  size_t run_end = 0;
  uint32_t output_level = 1;
};

/// The outcome of an eviction pick: jobs plus the Eq. 3 keep-set debug
/// payload (DBImpl emits the keep_set_selected event from it).
struct EvictionPick {
  /// True when the Eq. 3 knapsack ran: the cost model is on and the gate
  /// fired, even if no victims were claimable.
  bool keep_set_selected = false;
  std::vector<CompactionJob> jobs;
  std::set<size_t> keep;  // partition indices retained (Φ)
  uint64_t tau_t = 0;     // the Eq. 3 budget the knapsack used
};

/// The classic major-compaction job: level-0 plus the whole run stack merge
/// into one level-1 run (the leveled eviction, and the manual
/// CompactToLevel1 shape under every policy).
CompactionJob FullCollapseJob(size_t partition_index,
                              const PartitionView& view);

class CompactionPicker {
 public:
  CompactionPicker(const CompactionPolicyOptions& options,
                   const CostModel* cost_model)
      : options_(options), cost_(cost_model) {}
  virtual ~CompactionPicker() = default;

  virtual const char* name() const = 0;
  virtual CompactionPolicyKind kind() const = 0;

  /// PM -> SSD eviction (the paper's major compaction trigger): the gate,
  /// the keep-set, one job per claimable victim with level-0 data. Called
  /// once per Algorithm-1 check.
  EvictionPick PickEviction(const PickContext& ctx) const;

  /// Fills `pick`'s keep-set: with the cost model on, the greedy Eq. 3
  /// knapsack keeps the hottest partitions within τ_t (the arbiter's target
  /// when it runs); with it off, nothing is kept.
  void SelectKeepSet(const PickContext& ctx, EvictionPick* pick) const;

  /// SSD shape maintenance: at most one job per partition per call; the
  /// executor calls this in a loop (rebuilding the context) until it
  /// returns nothing, so multi-level cascades settle within one check.
  virtual std::vector<CompactionJob> PickMaintenance(
      const PickContext& ctx) const = 0;

  const CompactionPolicyOptions& policy_options() const { return options_; }

 protected:
  /// True when the eviction gate fires (see CompactionPolicyOptions).
  bool EvictionDue(const PickContext& ctx) const;

  /// How this policy turns one eviction victim into a job; everything else
  /// about eviction (gate, knapsack, claimability) is shared.
  virtual CompactionJob MakeEvictionJob(size_t partition_index,
                                        const PartitionView& view) const = 0;

  CompactionPolicyOptions options_;
  const CostModel* cost_;
};

/// True for the names NewCompactionPicker accepts.
bool IsValidCompactionPolicy(const std::string& name);

/// Instantiates the picker selected by `options.policy` ("leveled",
/// "tiered", "lazy_leveling"); InvalidArgument for anything else.
/// `cost_model` must outlive the picker.
Status NewCompactionPicker(const CompactionPolicyOptions& options,
                           const CostModel* cost_model,
                           std::unique_ptr<CompactionPicker>* picker);

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_POLICY_COMPACTION_PICKER_H_
