#include "compaction/policy/pickers.h"

namespace pmblade {

CompactionJob LeveledPicker::MakeEvictionJob(size_t partition_index,
                                             const PartitionView& view) const {
  // The paper's major compaction: level-0 merges with the ENTIRE run stack
  // (one level-1 run under steady state) into a fresh level-1 run.
  return FullCollapseJob(partition_index, view);
}

std::vector<CompactionJob> LeveledPicker::PickMaintenance(
    const PickContext& ctx) const {
  // Leveled steady state is at most one run, tagged level 1 — nothing to
  // maintain, so this never fires on data the leveled policy wrote. It only
  // collapses a stack inherited from a tiered / lazy-leveling run of the
  // same DB, which is what makes the policy switchable across reopens.
  std::vector<CompactionJob> jobs;
  for (size_t i = 0; i < ctx.partitions.size(); ++i) {
    const PartitionView& view = ctx.partitions[i];
    if (!view.claimable || view.runs.empty()) continue;
    if (view.runs.size() == 1 && view.runs[0].level == 1) continue;
    CompactionJob job;
    job.partition_index = i;
    job.include_l0 = false;
    job.run_begin = 0;
    job.run_end = view.runs.size();
    job.output_level = 1;
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace pmblade
