// Cost-model edge cases (Eqs. 1-3): zero read frequency, empty partition
// sets, zero-size partitions, and counters near the uint64 range where the
// naive arithmetic used to wrap. The overflow cases pin down a real fix in
// src/compaction/cost_model.cc: SelectRetained's knapsack admission test.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "compaction/cost_model.h"

namespace pmblade {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

PartitionCounters Counters(uint64_t id, uint64_t size, uint64_t reads) {
  PartitionCounters p;
  p.partition_id = id;
  p.unsorted_tables = 8;
  p.size_bytes = size;
  p.reads = reads;
  p.reads_per_sec = static_cast<double>(reads);
  return p;
}

// ---------------------------------------------------------------------------
// Eq. 1 / Eq. 2: zero read frequency and zero activity
// ---------------------------------------------------------------------------

TEST(CostModelEdgeTest, Eq1NeverFiresWithZeroReadFrequency) {
  CostModel model{CostModelParams{}};
  PartitionCounters p = Counters(1, 16 << 20, 0);
  p.reads_per_sec = 0.0;  // n̂ᵢʳ = 0 ⇒ benefit side of Eq. 1 is exactly 0
  CostDecision d = model.EvaluateInternal(p);
  EXPECT_TRUE(d.gate_passed);
  EXPECT_EQ(d.eq1_benefit_rate, 0.0);
  EXPECT_FALSE(d.eq1_triggered);
}

TEST(CostModelEdgeTest, Eq2NeverFiresWithZeroUpdates) {
  CostModelParams params;
  params.tau_w = 1;  // size gate wide open
  CostModel model(params);
  PartitionCounters p = Counters(1, 16 << 20, 100);
  p.writes = 1000;
  p.updates = 0;  // no duplicates ⇒ zero SSD savings
  CostDecision d = model.EvaluateInternal(p);
  EXPECT_EQ(d.eq2_ssd_savings, 0.0);
  EXPECT_FALSE(d.eq2_triggered);
}

TEST(CostModelEdgeTest, GateBlocksBothEquationsOnColdPartition) {
  CostModel model{CostModelParams{}};
  PartitionCounters p = Counters(1, 64 << 20, 1 << 20);
  p.unsorted_tables = 0;  // below min_unsorted_for_internal
  p.updates = 1 << 20;
  CostDecision d = model.EvaluateInternal(p);
  EXPECT_FALSE(d.gate_passed);
  EXPECT_FALSE(d.triggered());
}

// ---------------------------------------------------------------------------
// Eq. 3 knapsack: empty inputs, zero sizes, overflow admission
// ---------------------------------------------------------------------------

TEST(CostModelEdgeTest, SelectRetainedOnEmptyPartitionSetIsEmpty) {
  CostModel model{CostModelParams{}};
  EXPECT_TRUE(model.SelectRetained({}, model.base_tau_t()).empty());
}

TEST(CostModelEdgeTest, ZeroSizePartitionsAreAlwaysRetained) {
  CostModelParams params;
  params.tau_t = 100;
  CostModel model(params);
  // Zero-byte partitions cost nothing and must never evict a sized one.
  std::vector<PartitionCounters> parts = {
      Counters(0, 0, 0),
      Counters(1, 100, 50),
      Counters(2, 0, 0),
  };
  std::vector<size_t> retained = model.SelectRetained(parts, params.tau_t);
  EXPECT_EQ(retained, (std::vector<size_t>{0, 1, 2}));
}

TEST(CostModelEdgeTest, HugePartitionCannotWrapIntoTheBudget) {
  CostModelParams params;
  params.tau_t = 1 << 20;
  CostModel model(params);
  // size_bytes near UINT64_MAX: with wrapping arithmetic `used + s` came
  // out tiny and the monster partition was "retained" inside a 1 MiB
  // budget. It must be sent to major compaction instead.
  std::vector<PartitionCounters> parts = {
      Counters(0, 512 << 10, 1000),      // hot, fits
      Counters(1, kU64Max - 8, 999999),  // hotter per byte ratio irrelevant
  };
  parts[1].reads_per_sec = 1e18;  // sorted first: max stress on the check
  std::vector<size_t> retained = model.SelectRetained(parts, params.tau_t);
  EXPECT_EQ(retained, (std::vector<size_t>{0}));
}

TEST(CostModelEdgeTest, BudgetExactlyConsumedAdmitsBoundaryPartition) {
  CostModelParams params;
  params.tau_t = 100;
  CostModel model(params);
  std::vector<PartitionCounters> parts = {
      Counters(0, 60, 600),  // hottest per byte
      Counters(1, 40, 100),  // exactly fills the remainder
      Counters(2, 1, 0),     // over budget by one byte
  };
  std::vector<size_t> retained = model.SelectRetained(parts, params.tau_t);
  EXPECT_EQ(retained, (std::vector<size_t>{0, 1}));
}

TEST(CostModelEdgeTest, MaxBudgetRetainsEverything) {
  CostModelParams params;
  params.tau_t = kU64Max;
  CostModel model(params);
  std::vector<PartitionCounters> parts = {
      Counters(0, kU64Max - 1, 10),
      Counters(1, 1, 10),
  };
  // used reaches exactly UINT64_MAX without wrapping.
  EXPECT_EQ(model.SelectRetained(parts, params.tau_t),
            (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace pmblade
