// Tests for the pluggable compaction-policy framework: unit tests over the
// pickers as pure functions (hand-built PickContexts, no engine), a
// differential test driving identical workloads into leveled / tiered /
// lazy-leveling DBs and demanding identical logical contents, the
// policy-switch-across-reopen guarantee, and Options sanitization.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "compaction/policy/pickers.h"
#include "core/db.h"
#include "util/random.h"

namespace pmblade {
namespace {

// ---------------------------------------------------------------------------
// Picker unit tests: pure functions over hand-built contexts.
// ---------------------------------------------------------------------------

CompactionPolicyOptions PolicyOpts(const std::string& name,
                                   uint32_t ratio = 3,
                                   uint32_t levels = 3) {
  CompactionPolicyOptions opts;
  opts.policy = name;
  opts.size_ratio = ratio;
  opts.max_ssd_levels = levels;
  return opts;
}

// One partition whose run stack carries the given level tags (newest
// first), 1 KB per run.
PartitionView MakeView(const std::vector<uint32_t>& levels,
                       uint64_t l0_bytes = 0) {
  PartitionView view;
  view.l0_bytes = l0_bytes;
  view.counters.size_bytes = l0_bytes;
  for (uint32_t level : levels) {
    PartitionView::RunView run;
    run.level = level;
    run.bytes = 1024;
    view.runs.push_back(run);
  }
  return view;
}

PickContext MakeContext(const std::vector<PartitionView>& views) {
  PickContext ctx;
  ctx.partitions = views;
  for (const PartitionView& v : views) ctx.total_l0_bytes += v.l0_bytes;
  return ctx;
}

// Cost model whose Eq. 3 gate always fires and whose keep-set budget
// retains nothing, so PickEviction victimizes every claimable partition
// with level-0 data — isolating the per-policy job shape.
CostModelParams EagerParams() {
  CostModelParams params;
  params.tau_m = 1;
  params.tau_t = 1;  // every partition is bigger than the keep budget
  return params;
}

std::unique_ptr<CompactionPicker> MakePicker(const CompactionPolicyOptions& o,
                                             const CostModel* model) {
  std::unique_ptr<CompactionPicker> picker;
  EXPECT_TRUE(NewCompactionPicker(o, model, &picker).ok());
  return picker;
}

TEST(CompactionPickerTest, FactoryAcceptsKnownNamesOnly) {
  EXPECT_TRUE(IsValidCompactionPolicy("leveled"));
  EXPECT_TRUE(IsValidCompactionPolicy("tiered"));
  EXPECT_TRUE(IsValidCompactionPolicy("lazy_leveling"));
  EXPECT_FALSE(IsValidCompactionPolicy("universal"));
  EXPECT_FALSE(IsValidCompactionPolicy("Leveled"));
  EXPECT_FALSE(IsValidCompactionPolicy(""));

  CostModel model(EagerParams());
  std::unique_ptr<CompactionPicker> picker;
  Status s = NewCompactionPicker(PolicyOpts("universal"), &model, &picker);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  ASSERT_TRUE(
      NewCompactionPicker(PolicyOpts("lazy_leveling"), &model, &picker).ok());
  EXPECT_STREQ(picker->name(), "lazy_leveling");
  EXPECT_EQ(picker->kind(), CompactionPolicyKind::kLazyLeveling);
}

TEST(CompactionPickerTest, EvictionJobShapesPerPolicy) {
  CostModel model(EagerParams());
  PickContext ctx = MakeContext({MakeView({1, 1}, /*l0_bytes=*/4096)});

  // Leveled: level-0 merges with the whole stack into one level-1 run.
  EvictionPick pick =
      MakePicker(PolicyOpts("leveled"), &model)->PickEviction(ctx);
  ASSERT_TRUE(pick.keep_set_selected);
  ASSERT_EQ(pick.jobs.size(), 1u);
  EXPECT_TRUE(pick.jobs[0].include_l0);
  EXPECT_EQ(pick.jobs[0].run_begin, 0u);
  EXPECT_EQ(pick.jobs[0].run_end, 2u);
  EXPECT_EQ(pick.jobs[0].output_level, 1u);

  // Tiered: a fresh level-1 run stacks on top; nothing is rewritten.
  pick = MakePicker(PolicyOpts("tiered"), &model)->PickEviction(ctx);
  ASSERT_EQ(pick.jobs.size(), 1u);
  EXPECT_TRUE(pick.jobs[0].include_l0);
  EXPECT_EQ(pick.jobs[0].run_begin, 0u);
  EXPECT_EQ(pick.jobs[0].run_end, 0u);
  EXPECT_EQ(pick.jobs[0].output_level, 1u);

  // Lazy leveling stacks like tiered while the tree has upper levels...
  pick = MakePicker(PolicyOpts("lazy_leveling"), &model)->PickEviction(ctx);
  ASSERT_EQ(pick.jobs.size(), 1u);
  EXPECT_EQ(pick.jobs[0].run_end, 0u);

  // ...but a one-level tree is all last level, which is leveled.
  pick = MakePicker(PolicyOpts("lazy_leveling", 3, /*levels=*/1), &model)
             ->PickEviction(ctx);
  ASSERT_EQ(pick.jobs.size(), 1u);
  EXPECT_EQ(pick.jobs[0].run_end, 2u);
  EXPECT_EQ(pick.jobs[0].output_level, 1u);
}

TEST(CompactionPickerTest, EvictionSkipsUnclaimableAndEmptyPartitions) {
  CostModel model(EagerParams());
  PartitionView claimed = MakeView({}, 4096);
  claimed.claimable = false;
  PickContext ctx =
      MakeContext({claimed, MakeView({}, 0), MakeView({}, 4096)});
  EvictionPick pick =
      MakePicker(PolicyOpts("tiered"), &model)->PickEviction(ctx);
  ASSERT_TRUE(pick.keep_set_selected);
  ASSERT_EQ(pick.jobs.size(), 1u);
  EXPECT_EQ(pick.jobs[0].partition_index, 2u);
}

// The pick carries the keep-set budget the knapsack used, which is what the
// keep_set_selected event reports: the configured τ_t, then the memory
// arbiter's target once it has set one.
TEST(CompactionPickerTest, EvictionReportsTheBudgetItUsed) {
  CostModel model(EagerParams());
  PickContext ctx = MakeContext({MakeView({}, /*l0_bytes=*/4096)});
  std::unique_ptr<CompactionPicker> picker =
      MakePicker(PolicyOpts("leveled"), &model);

  EvictionPick pick = picker->PickEviction(ctx);
  EXPECT_EQ(pick.tau_t, 1u);
  EXPECT_TRUE(pick.keep.empty());
  EXPECT_EQ(pick.jobs.size(), 1u);

  model.set_dynamic_tau_t(8192);
  pick = picker->PickEviction(ctx);
  EXPECT_EQ(pick.tau_t, 8192u);
  EXPECT_EQ(pick.keep.count(0), 1u);  // 4 KiB now fits the budget
  EXPECT_TRUE(pick.jobs.empty());
}

// With the cost model off the gate is the conventional table count: it
// fires once any one partition holds l0_table_trigger level-0 tables, or on
// pool pressure; it keeps nothing in PM and evicts every claimable
// partition that holds level-0 data.
TEST(CompactionPickerTest, ConventionalGateCountsLevel0Tables) {
  // Budgets under which Eq. 3 would never fire and would keep everything:
  // the conventional gate must ignore them.
  CostModelParams params;
  params.tau_m = 1ull << 40;
  params.tau_t = 1ull << 40;
  CostModel model(params);
  CompactionPolicyOptions opts = PolicyOpts("leveled");
  opts.use_cost_model = false;
  opts.l0_table_trigger = 4;
  std::unique_ptr<CompactionPicker> picker = MakePicker(opts, &model);

  PartitionView a = MakeView({1}, /*l0_bytes=*/4096);
  a.counters.unsorted_tables = 2;
  a.counters.sorted_tables = 1;
  PartitionView b = MakeView({}, 1024);
  b.counters.unsorted_tables = 3;
  PartitionView no_l0 = MakeView({1}, 0);
  PartitionView held = MakeView({}, 2048);
  held.counters.unsorted_tables = 1;
  held.claimable = false;
  PickContext ctx = MakeContext({a, b, no_l0, held});

  // Three tables in each of a and b: the count is per partition, so
  // nothing fires.
  EvictionPick pick = picker->PickEviction(ctx);
  EXPECT_TRUE(pick.jobs.empty());
  EXPECT_FALSE(pick.keep_set_selected);

  // A fourth table in b fires the gate for every claimable partition with
  // level-0 data, and no keep-set is selected.
  ctx.partitions[1].counters.sorted_tables = 1;
  pick = picker->PickEviction(ctx);
  EXPECT_FALSE(pick.keep_set_selected);
  EXPECT_TRUE(pick.keep.empty());
  ASSERT_EQ(pick.jobs.size(), 2u);
  EXPECT_EQ(pick.jobs[0].partition_index, 0u);
  EXPECT_TRUE(pick.jobs[0].include_l0);
  EXPECT_EQ(pick.jobs[0].run_end, 1u);  // the whole stack collapses
  EXPECT_EQ(pick.jobs[1].partition_index, 1u);

  // Pool pressure fires it below the trigger too.
  ctx.partitions[1].counters.sorted_tables = 0;
  ctx.pool_pressure = true;
  pick = picker->PickEviction(ctx);
  EXPECT_FALSE(pick.keep_set_selected);
  EXPECT_EQ(pick.jobs.size(), 2u);

  // The manual path's keep-set is empty as well.
  EvictionPick manual;
  picker->SelectKeepSet(ctx, &manual);
  EXPECT_FALSE(manual.keep_set_selected);
  EXPECT_TRUE(manual.keep.empty());
}

TEST(LeveledPickerTest, MaintenanceOnlyFiresOnForeignShapes) {
  CostModel model(EagerParams());
  std::unique_ptr<CompactionPicker> picker =
      MakePicker(PolicyOpts("leveled"), &model);

  // Steady-state leveled shapes: nothing to do.
  EXPECT_TRUE(picker->PickMaintenance(MakeContext({MakeView({})})).empty());
  EXPECT_TRUE(picker->PickMaintenance(MakeContext({MakeView({1})})).empty());

  // A stack inherited from a tiered run collapses to one level-1 run.
  std::vector<CompactionJob> jobs =
      picker->PickMaintenance(MakeContext({MakeView({1, 1, 2, 2})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_FALSE(jobs[0].include_l0);
  EXPECT_EQ(jobs[0].run_begin, 0u);
  EXPECT_EQ(jobs[0].run_end, 4u);
  EXPECT_EQ(jobs[0].output_level, 1u);

  // A single run tagged deeper than level 1 is foreign too.
  jobs = picker->PickMaintenance(MakeContext({MakeView({2})}));
  ASSERT_EQ(jobs.size(), 1u);

  // Unclaimable partitions are off limits.
  PartitionView claimed = MakeView({1, 1});
  claimed.claimable = false;
  EXPECT_TRUE(picker->PickMaintenance(MakeContext({claimed})).empty());
}

TEST(TieredPickerTest, DeepestOversizedBlockMergesDown) {
  CostModel model(EagerParams());
  std::unique_ptr<CompactionPicker> picker =
      MakePicker(PolicyOpts("tiered", /*ratio=*/3, /*levels=*/3), &model);

  // Below the ratio: stacks are left alone.
  EXPECT_TRUE(
      picker->PickMaintenance(MakeContext({MakeView({1, 1})})).empty());

  // A full level-1 block merges to level 2.
  std::vector<CompactionJob> jobs =
      picker->PickMaintenance(MakeContext({MakeView({1, 1, 1})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_FALSE(jobs[0].include_l0);
  EXPECT_EQ(jobs[0].run_begin, 0u);
  EXPECT_EQ(jobs[0].run_end, 3u);
  EXPECT_EQ(jobs[0].output_level, 2u);

  // Two oversized blocks: the DEEPEST one goes first, so cascades settle
  // bottom-up.
  jobs = picker->PickMaintenance(
      MakeContext({MakeView({1, 1, 1, 2, 2, 2})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].run_begin, 3u);
  EXPECT_EQ(jobs[0].run_end, 6u);
  EXPECT_EQ(jobs[0].output_level, 3u);

  // At the deepest level the block merges in place.
  jobs = picker->PickMaintenance(MakeContext({MakeView({3, 3, 3})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].output_level, 3u);
  EXPECT_EQ(jobs[0].run_begin, 0u);
  EXPECT_EQ(jobs[0].run_end, 3u);

  // At most one job per partition per round; independent partitions each
  // get theirs.
  jobs = picker->PickMaintenance(
      MakeContext({MakeView({1, 1, 1}), MakeView({2, 2, 2})}));
  EXPECT_EQ(jobs.size(), 2u);
}

TEST(LazyLevelingPickerTest, LastLevelStaysSingleRun) {
  CostModel model(EagerParams());
  std::unique_ptr<CompactionPicker> picker = MakePicker(
      PolicyOpts("lazy_leveling", /*ratio=*/3, /*levels=*/3), &model);

  // Invariant 1: two runs tagged at (or beyond) the last level merge back
  // into one, before any upper-level work.
  std::vector<CompactionJob> jobs =
      picker->PickMaintenance(MakeContext({MakeView({1, 3, 3})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].run_begin, 1u);
  EXPECT_EQ(jobs[0].run_end, 3u);
  EXPECT_EQ(jobs[0].output_level, 3u);

  // Invariant 2: a full upper block merges one level down, tiered-style.
  jobs = picker->PickMaintenance(MakeContext({MakeView({1, 1, 1, 3})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].run_begin, 0u);
  EXPECT_EQ(jobs[0].run_end, 3u);
  EXPECT_EQ(jobs[0].output_level, 2u);

  // A block landing ON the last level absorbs the existing last-level run,
  // keeping the bottom single-run.
  jobs = picker->PickMaintenance(MakeContext({MakeView({2, 2, 2, 3})}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].run_begin, 0u);
  EXPECT_EQ(jobs[0].run_end, 4u);
  EXPECT_EQ(jobs[0].output_level, 3u);

  // A legal lazy-leveling shape is left alone.
  EXPECT_TRUE(
      picker->PickMaintenance(MakeContext({MakeView({1, 1, 3})})).empty());
}

// ---------------------------------------------------------------------------
// Engine-level tests.
// ---------------------------------------------------------------------------

Options SmallDbOptions() {
  Options options;
  options.memtable_bytes = 16 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.partition_boundaries = {"key25", "key5", "key75"};
  // Tight budgets so evictions (and thus the SSD shapes) happen many times
  // over a small workload.
  options.cost.tau_m = 64 << 10;
  options.cost.tau_t = 16 << 10;
  options.cost.tau_w = 8 << 10;
  return options;
}

// The shared deterministic workload: multi-wave puts / overwrites /
// deletes over keys that straddle every partition boundary, with flushes
// and forced evictions between waves. Returns the expected final contents.
std::map<std::string, std::string> RunDifferentialWorkload(DB* db) {
  std::map<std::string, std::string> model;
  Random rnd(20230615);
  std::string filler(96, 'x');
  for (int wave = 0; wave < 6; ++wave) {
    for (int op = 0; op < 250; ++op) {
      std::string key = "key" + std::to_string(rnd.Uniform(400));
      if (rnd.Uniform(10) < 2) {
        model.erase(key);
        EXPECT_TRUE(db->Delete(WriteOptions(), key).ok());
      } else {
        std::string value =
            "w" + std::to_string(wave) + "-" + std::to_string(op) + filler;
        model[key] = value;
        EXPECT_TRUE(db->Put(WriteOptions(), key, value).ok());
      }
    }
    EXPECT_TRUE(db->FlushMemTable().ok());
    if (wave % 2 == 1) {
      EXPECT_TRUE(db->CompactToLevel1(/*respect_cost_model=*/true).ok());
    }
  }
  return model;
}

void CheckContents(DB* db, const std::map<std::string, std::string>& model,
                   const std::string& label) {
  // Full scan matches the model exactly.
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  auto expect = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, model.end())
        << label << ": surplus key " << it->key().ToString();
    ASSERT_EQ(it->key().ToString(), expect->first) << label;
    ASSERT_EQ(it->value().ToString(), expect->second) << label;
  }
  ASSERT_EQ(expect, model.end()) << label << ": scan ended early";

  // Point reads agree, including deleted keys staying dead.
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto hit = model.find(key);
    if (hit == model.end()) {
      ASSERT_TRUE(s.IsNotFound()) << label << ": " << key;
    } else {
      ASSERT_TRUE(s.ok()) << label << ": " << key << " " << s.ToString();
      ASSERT_EQ(value, hit->second) << label << ": " << key;
    }
  }
}

TEST(CompactionPolicyDifferentialTest, PoliciesAgreeOnContents) {
  for (const char* policy : {"leveled", "tiered", "lazy_leveling"}) {
    std::string dbname =
        ::testing::TempDir() + "pmblade_policy_diff_" + policy;
    Options options = SmallDbOptions();
    options.compaction_policy = policy;
    DestroyDB(options, dbname);

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok()) << policy;
    std::map<std::string, std::string> model =
        RunDifferentialWorkload(db.get());
    CheckContents(db.get(), model, policy);

    std::string name;
    ASSERT_TRUE(db->GetProperty("pmblade.compaction-policy", &name));
    EXPECT_EQ(name, policy);

    // Same policy across a reopen: recovery rebuilds the run stacks from
    // the manifest and the contents survive.
    db.reset();
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok()) << policy;
    CheckContents(db.get(), model, std::string(policy) + "/reopened");
    db.reset();
    DestroyDB(options, dbname);
  }
}

// Options under which EVERY flush-completion check evicts everything: the
// Eq. 3 gate is a few KB and the keep-set budget retains nothing, so the
// background scheduler (drained by FlushMemTable) pushes level-0 to the
// SSD once per wave and the per-policy shapes diverge deterministically.
Options EagerEvictionOptions() {
  Options options = SmallDbOptions();
  options.cost.tau_m = 8 << 10;
  options.cost.tau_t = 1 << 10;
  return options;
}

// Six waves of puts covering all four partitions, flushed (and therefore
// evicted, under EagerEvictionOptions) per wave. No forced CompactToLevel1:
// that API flattens any policy's stack by contract.
std::map<std::string, std::string> BuildStackedTree(DB* db) {
  std::map<std::string, std::string> model;
  std::string filler(96, 'x');
  for (int wave = 0; wave < 6; ++wave) {
    for (int op = 0; op < 200; ++op) {
      std::string key = "key" + std::to_string((wave * 200 + op) % 400);
      std::string value = "s" + std::to_string(wave) + filler;
      model[key] = value;
      EXPECT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
    EXPECT_TRUE(db->FlushMemTable().ok());
  }
  return model;
}

TEST(CompactionPolicyTest, TieredStacksRunsWhereLeveledCollapses) {
  uint64_t runs_by_policy[2] = {0, 0};
  const char* policies[2] = {"leveled", "tiered"};
  for (int i = 0; i < 2; ++i) {
    std::string dbname =
        ::testing::TempDir() + "pmblade_policy_shape_" + policies[i];
    Options options = EagerEvictionOptions();
    options.compaction_policy = policies[i];
    DestroyDB(options, dbname);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

    std::map<std::string, std::string> model = BuildStackedTree(db.get());
    ASSERT_TRUE(db->GetProperty("pmblade.lsm.ssd_runs", &runs_by_policy[i]));

    uint64_t max_level = 0;
    ASSERT_TRUE(db->GetProperty("pmblade.lsm.max_ssd_level", &max_level));
    if (i == 0) {
      // Leveled: one run per non-empty partition, all tagged level 1.
      EXPECT_LE(runs_by_policy[0], 4u);
      EXPECT_LE(max_level, 1u);
    }
    CheckContents(db.get(), model, policies[i]);
    db.reset();
    DestroyDB(options, dbname);
  }
  // Tiered defers merges, so it ends the identical eviction schedule with
  // strictly more runs than leveled's one-per-partition.
  EXPECT_GT(runs_by_policy[1], runs_by_policy[0]);
}

TEST(CompactionPolicyTest, SwitchingPolicyAcrossReopenConverges) {
  std::string dbname = ::testing::TempDir() + "pmblade_policy_switch";
  Options options = EagerEvictionOptions();
  options.compaction_policy = "tiered";
  DestroyDB(options, dbname);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::map<std::string, std::string> model = BuildStackedTree(db.get());
  db.reset();

  // Reopen the tiered-built tree as leveled: every run stack is
  // self-describing in the manifest, so the leveled picker inherits it and
  // a forced compaction converges it to the leveled single-run shape.
  options.compaction_policy = "leveled";
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  CheckContents(db.get(), model, "tiered->leveled");
  ASSERT_TRUE(db->CompactToLevel1(/*respect_cost_model=*/false).ok());
  uint64_t runs = 0, max_level = 0;
  ASSERT_TRUE(db->GetProperty("pmblade.lsm.ssd_runs", &runs));
  ASSERT_TRUE(db->GetProperty("pmblade.lsm.max_ssd_level", &max_level));
  EXPECT_LE(runs, 4u);       // <= one run per partition
  EXPECT_LE(max_level, 1u);  // all level-1
  CheckContents(db.get(), model, "tiered->leveled/compacted");

  // And back onto a stacking policy: the leveled shape is a legal (if
  // shallow) lazy-leveling shape, so nothing breaks.
  db.reset();
  options.compaction_policy = "lazy_leveling";
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  CheckContents(db.get(), model, "leveled->lazy_leveling");
  db.reset();
  DestroyDB(options, dbname);
}

// The PMBlade-PM configuration: no cost model, so the picker's table-count
// gate drives every major compaction, and neither the Eq. 1/2 decisions nor
// the Eq. 3 keep-set ever run.
TEST(CompactionPolicyTest, ConventionalGateRunsMajorsWithoutTheCostModel) {
  std::string dbname = ::testing::TempDir() + "pmblade_policy_conventional";
  Options options = SmallDbOptions();
  options.enable_cost_model = false;
  options.l0_table_trigger = 4;
  options.major.engine = CompactionEngine::kThread;
  DestroyDB(options, dbname);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::map<std::string, std::string> model;
  std::string filler(96, 'x');
  for (int wave = 0; wave < 12; ++wave) {
    for (int i = 0; i < 100; ++i) {
      std::string key = "key" + std::to_string((wave * 37 + i * 13) % 400);
      std::string value = "w" + std::to_string(wave) + filler;
      model[key] = value;
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());  // waits for the checks it set off
  }

  uint64_t majors = 0, internals = 0, decisions = 0, keep_sets = 0;
  ASSERT_TRUE(db->GetProperty("pmblade.compaction.major.count", &majors));
  ASSERT_TRUE(
      db->GetProperty("pmblade.compaction.internal.count", &internals));
  ASSERT_TRUE(db->GetProperty("pmblade.cost.decisions", &decisions));
  ASSERT_TRUE(
      db->GetProperty("pmblade.cost.keep_set_selections", &keep_sets));
  EXPECT_GT(majors, 0u);
  EXPECT_EQ(internals, 0u);
  EXPECT_EQ(decisions, 0u);
  EXPECT_EQ(keep_sets, 0u);
  CheckContents(db.get(), model, "conventional");

  // The manual path honours "respect the cost model" as a no-op here.
  ASSERT_TRUE(db->CompactToLevel1(/*respect_cost_model=*/true).ok());
  ASSERT_TRUE(
      db->GetProperty("pmblade.cost.keep_set_selections", &keep_sets));
  EXPECT_EQ(keep_sets, 0u);
  CheckContents(db.get(), model, "conventional/compacted");
  db.reset();
  DestroyDB(options, dbname);
}

TEST(CompactionPolicyTest, OpenRejectsBadPolicyConfigurations) {
  std::string dbname = ::testing::TempDir() + "pmblade_policy_sanitize";
  std::unique_ptr<DB> db;

  Options options = SmallDbOptions();
  options.compaction_policy = "universal";
  Status s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // Non-leveled policies need the cost-model scheduler.
  options = SmallDbOptions();
  options.compaction_policy = "tiered";
  options.enable_cost_model = false;
  s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  options = SmallDbOptions();
  options.compaction_size_ratio = 1;
  s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  options = SmallDbOptions();
  options.max_ssd_levels = 0;
  s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace pmblade
