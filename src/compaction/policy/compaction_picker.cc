#include "compaction/policy/compaction_picker.h"

#include "compaction/policy/pickers.h"

namespace pmblade {

CompactionJob FullCollapseJob(size_t partition_index,
                              const PartitionView& view) {
  CompactionJob job;
  job.partition_index = partition_index;
  job.include_l0 = true;
  job.run_begin = 0;
  job.run_end = view.runs.size();
  job.output_level = 1;
  return job;
}

bool CompactionPicker::EvictionDue(const PickContext& ctx) const {
  if (ctx.pool_pressure) return true;
  // Eq. 3 gate: total level-0 usage reached τ_m.
  if (options_.use_cost_model) {
    return cost_->MajorCompactionDue(ctx.total_l0_bytes);
  }
  // Conventional trigger: some partition's level-0 holds too many tables.
  for (const PartitionView& view : ctx.partitions) {
    if (view.counters.unsorted_tables + view.counters.sorted_tables >=
        options_.l0_table_trigger) {
      return true;
    }
  }
  return false;
}

void CompactionPicker::SelectKeepSet(const PickContext& ctx,
                                     EvictionPick* pick) const {
  if (!options_.use_cost_model) return;
  std::vector<PartitionCounters> all;
  all.reserve(ctx.partitions.size());
  for (const PartitionView& view : ctx.partitions) {
    all.push_back(view.counters);
  }
  pick->keep_set_selected = true;
  pick->tau_t = cost_->base_tau_t();
  std::vector<size_t> retained = cost_->SelectRetained(all, pick->tau_t);
  pick->keep.insert(retained.begin(), retained.end());
}

EvictionPick CompactionPicker::PickEviction(const PickContext& ctx) const {
  EvictionPick pick;
  if (!EvictionDue(ctx)) return pick;
  // Everything the keep-set does not retain that holds level-0 data is an
  // eviction victim.
  SelectKeepSet(ctx, &pick);
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
