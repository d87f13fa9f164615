#include "compaction/policy/compaction_picker.h"

#include "compaction/policy/pickers.h"

namespace pmblade {

EvictionPick CompactionPicker::PickEviction(const PickContext& ctx) const {
  EvictionPick pick;
  // Eq. 3 gate: total level-0 usage reached τ_m, or the PM pool itself is
  // running short.
  if (!cost_->MajorCompactionDue(ctx.total_l0_bytes) && !ctx.pool_pressure) {
    return pick;
  }
  pick.evaluated = true;

  std::vector<PartitionCounters> all;
  all.reserve(ctx.partitions.size());
  for (const PartitionView& view : ctx.partitions) {
    all.push_back(view.counters);
  }
  // Greedy knapsack (Eq. 3): keep the hottest partitions within the τ_t
  // budget (the arbiter's target when it runs); everything else with
  // level-0 data is an eviction victim.
  pick.tau_t = cost_->base_tau_t();
  std::vector<size_t> retained = cost_->SelectRetained(all, pick.tau_t);
  pick.keep.insert(retained.begin(), retained.end());
  for (size_t i = 0; i < ctx.partitions.size(); ++i) {
    const PartitionView& view = ctx.partitions[i];
    if (pick.keep.count(i) != 0 || view.l0_bytes == 0 || !view.claimable) {
      continue;
    }
    pick.jobs.push_back(MakeEvictionJob(i, view));
  }
  return pick;
}

bool IsValidCompactionPolicy(const std::string& name) {
  return name == "leveled" || name == "tiered" || name == "lazy_leveling";
}

Status NewCompactionPicker(const CompactionPolicyOptions& options,
                           const CostModel* cost_model,
                           std::unique_ptr<CompactionPicker>* picker) {
  if (options.policy == "leveled") {
    picker->reset(new LeveledPicker(options, cost_model));
  } else if (options.policy == "tiered") {
    picker->reset(new TieredPicker(options, cost_model));
  } else if (options.policy == "lazy_leveling") {
    picker->reset(new LazyLevelingPicker(options, cost_model));
  } else {
    return Status::InvalidArgument(
        "unknown compaction_policy \"" + options.policy +
        "\" (expected leveled, tiered or lazy_leveling)");
  }
  return Status::OK();
}

}  // namespace pmblade
