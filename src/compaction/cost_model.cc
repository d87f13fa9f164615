#include "compaction/cost_model.h"

#include <algorithm>
#include <numeric>

namespace pmblade {

CostDecision CostModel::EvaluateInternal(const PartitionCounters& p) const {
  CostDecision d;
  // Eq. 1: n̂ʳ * (n/2) * I_b - I_p / t̂_p > 0
  d.eq1_benefit_rate =
      p.reads_per_sec * (static_cast<double>(p.unsorted_tables) / 2.0) *
      params_.i_b;
  d.eq1_cost_rate = params_.i_p / params_.t_p;
  // Eq. 2 with n_bef ≈ n^w and the duplicate count (n_bef - n_aft) ≈ n^u:
  // updates are what create redundant versions in the PM tables.
  d.eq2_ssd_savings = static_cast<double>(p.updates) * params_.i_s;
  d.eq2_pm_cost = static_cast<double>(p.writes) * params_.i_p;

  d.gate_passed = p.unsorted_tables >= params_.min_unsorted_for_internal;
  d.eq1_triggered = d.gate_passed && d.eq1_benefit_rate > d.eq1_cost_rate;
  d.eq2_triggered = d.gate_passed && p.size_bytes >= params_.tau_w &&
                    d.eq2_ssd_savings > d.eq2_pm_cost;
  return d;
}

std::vector<size_t> CostModel::SelectRetained(
    const std::vector<PartitionCounters>& partitions,
    uint64_t budget) const {
  std::vector<size_t> order(partitions.size());
  std::iota(order.begin(), order.end(), size_t{0});
  // Hottest first: reads per byte.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double ha = partitions[a].size_bytes > 0
                    ? static_cast<double>(partitions[a].reads) /
                          static_cast<double>(partitions[a].size_bytes)
                    : 0.0;
    double hb = partitions[b].size_bytes > 0
                    ? static_cast<double>(partitions[b].reads) /
                          static_cast<double>(partitions[b].size_bytes)
                    : 0.0;
    if (ha != hb) return ha > hb;
    return partitions[a].partition_id < partitions[b].partition_id;
  });

  std::vector<size_t> retained;
  uint64_t used = 0;
  for (size_t idx : order) {
    uint64_t s = partitions[idx].size_bytes;
    // used <= budget always holds, so budget - used cannot underflow; the
    // naive `used + s <= budget` wraps when s is near UINT64_MAX and would
    // admit a partition far over budget.
    if (s <= budget - used) {
      retained.push_back(idx);
      used += s;
    }
  }
  std::sort(retained.begin(), retained.end());
  return retained;
}

}  // namespace pmblade
