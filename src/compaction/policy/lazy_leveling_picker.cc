#include <algorithm>

#include "compaction/policy/pickers.h"

namespace pmblade {

CompactionJob LazyLevelingPicker::MakeEvictionJob(
    size_t partition_index, const PartitionView& view) const {
  // A one-level tree has only the last level, and the last level is
  // leveled: this degenerates to the leveled policy's full merge.
  CompactionJob job = FullCollapseJob(partition_index, view);
  // Upper levels are tiered: stack the evicted data as a fresh level-1 run,
  // rewriting nothing.
  if (options_.max_ssd_levels > 1) job.run_end = 0;
  return job;
}

std::vector<CompactionJob> LazyLevelingPicker::PickMaintenance(
    const PickContext& ctx) const {
  std::vector<CompactionJob> jobs;
  const uint32_t ratio = std::max<uint32_t>(options_.size_ratio, 2);
  const uint32_t last_level = std::max<uint32_t>(options_.max_ssd_levels, 1);
  for (size_t i = 0; i < ctx.partitions.size(); ++i) {
    const PartitionView& view = ctx.partitions[i];
    if (!view.claimable || view.runs.size() < 2) continue;

    // Invariant 1: the last level holds a SINGLE run. More than one run
    // tagged >= last_level (a policy switch can leave that behind) merges
    // back into one.
    size_t tail = view.runs.size();
    while (tail > 0 && view.runs[tail - 1].level >= last_level) --tail;
    if (view.runs.size() - tail >= 2) {
      CompactionJob job;
      job.partition_index = i;
      job.include_l0 = false;
      job.run_begin = tail;
      job.run_end = view.runs.size();
      job.output_level = last_level;
      jobs.push_back(job);
      continue;
    }

    // Invariant 2 (tiered upper levels): the deepest block of >= T runs on
    // one level merges one level down; a block landing ON the last level
    // absorbs the existing last-level run so the bottom stays single-run
    // (the leveled last level).
    bool found = false;
    size_t best_begin = 0, best_end = 0;
    uint32_t best_level = 0;
    size_t begin = 0;
    while (begin < view.runs.size()) {
      size_t end = begin;
      while (end < view.runs.size() &&
             view.runs[end].level == view.runs[begin].level) {
        ++end;
      }
      if (view.runs[begin].level < last_level && end - begin >= ratio) {
        found = true;
        best_begin = begin;
        best_end = end;
        best_level = view.runs[begin].level;
      }
      begin = end;
    }
    if (!found) continue;
    CompactionJob job;
    job.partition_index = i;
    job.include_l0 = false;
    if (best_level + 1 == last_level) {
      // Levels are non-decreasing and capped at last_level, so everything
      // below this block IS the last level; extend the range to its end.
      job.run_begin = best_begin;
      job.run_end = view.runs.size();
      job.output_level = last_level;
    } else {
      job.run_begin = best_begin;
      job.run_end = best_end;
      job.output_level = best_level + 1;
    }
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace pmblade
