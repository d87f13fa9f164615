// Randomized crash-recovery driver shared by tests/crash_recovery_test.cc
// and tools/crash_stress.
//
// Each cycle: open the DB under a CrashEnv, verify the recovered state
// against the CrashModel (tests/test_model.h), run a random Put/Delete/
// write-batch workload with occasional flushes and compactions, then kill
// the "machine" — either between operations or from a callback on a
// randomly chosen SyncPoint inside the write path, flush, manifest commit,
// or compaction — and loop. The power cut drops unsynced file data (with
// optional torn last block) and, in PM mode, scrambles every 8-byte word
// that was stored but never explicitly persisted.
//
// Everything is driven by one seed: the same seed replays the same
// workloads and crash plans (background-thread timing can shift WHERE a
// sync-point countdown lands, but never what the checker accepts).

#ifndef PMBLADE_TESTS_CRASH_HARNESS_H_
#define PMBLADE_TESTS_CRASH_HARNESS_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/manifest.h"
#include "env/crash_env.h"
#include "tests/test_model.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace pmblade {
namespace test {

struct CrashHarnessOptions {
  std::string dbname;
  uint64_t seed = 0xb1adeu;   // fixed default: CI failures replay exactly
  int cycles = 100;
  L0Layout l0_layout = L0Layout::kPmTable;
  /// PM persist-granularity faults (Options::pm_crash_sim). Always on with
  /// a PM WAL: without it a power cut would leave the pool, and so the
  /// log, running.
  bool pm_crash_sim = false;
  /// WAL device under test (Options::wal_in_pm).
  bool wal_in_pm = true;
  int max_ops_per_cycle = 120;
  /// Parallel compaction pipeline under test: pool width and key-range
  /// slices per victim (1/1 = the historical single-worker pipeline).
  int compaction_workers = 1;
  int max_subcompactions = 1;
  /// SSD compaction shape under test (Options::compaction_policy): the
  /// tiered/lazy-leveling run stacks put multi-run manifests and mid-stack
  /// block replacement under power cuts.
  std::string compaction_policy = "leveled";
  /// Start from a fresh DB every this many cycles, so state (and dump cost)
  /// stays bounded and empty-DB recovery is exercised too.
  int fresh_db_period = 25;
  bool verbose = false;
  /// Polled between cycles; returning true ends the run early at a cycle
  /// boundary with CrashHarnessResult::interrupted set (the final-reopen
  /// invariants are still checked). Lets crash_stress finish cleanly on
  /// SIGINT/SIGTERM and report the cycles it did complete.
  std::function<bool()> stop_requested;
};

struct CrashHarnessResult {
  int cycles_run = 0;
  int syncpoint_crashes = 0;
  int between_op_crashes = 0;
  long long ops_issued = 0;
  int failed_cycle = -1;
  bool interrupted = false;  // stopped early via stop_requested
  std::string failure;       // empty = every invariant held
  bool ok() const { return failure.empty(); }
};

class CrashHarness {
 public:
  explicit CrashHarness(const CrashHarnessOptions& opts)
      : opts_(opts), rnd_(opts.seed), crash_env_(PosixEnv(), opts.seed) {
    if (opts_.wal_in_pm) opts_.pm_crash_sim = true;
  }

  CrashHarnessResult Run() {
    CrashHarnessResult result;
    Options options = MakeOptions();
    for (int cycle = 0; cycle < opts_.cycles; ++cycle) {
      if (opts_.stop_requested && opts_.stop_requested()) {
        result.interrupted = true;
        break;
      }
      if (cycle % opts_.fresh_db_period == 0) {
        crash_env_.ResetState();
        DestroyDB(options, opts_.dbname);
        model_ = CrashModel();
      }
      if (!RunCycle(options, cycle, &result)) {
        result.failed_cycle = cycle;
        return result;
      }
      ++result.cycles_run;
    }
    // Final reopen: the last crash's image must also check out.
    crash_env_.ResetState();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, opts_.dbname, &db);
    if (!s.ok()) {
      result.failure = "final reopen failed: " + s.ToString();
      return result;
    }
    std::string why;
    if (!CheckDb(db.get(), &why)) {
      result.failure = "final check: " + why;
      return result;
    }
    if (!CheckNoOrphanSstFiles(&why)) {
      result.failure = "final check: " + why;
      return result;
    }
    db.reset();
    DestroyDB(options, opts_.dbname);
    return result;
  }

 private:
  // Crash sites, grouped so every cycle exercises a named subsystem.
  struct CrashSite {
    const char* point;
    bool needs_flush;       // workload must call FlushMemTable to reach it
    bool needs_compaction;  // workload must call Compact* to reach it
  };
  static const std::vector<CrashSite>& Sites() {
    static const std::vector<CrashSite> sites = {
        {"DBImpl::Write:AfterWalAppend", false, false},
        {"DBImpl::Write:AfterWalSync", false, false},
        {"DBImpl::Write:BeforePublish", false, false},
        {"DBImpl::SwitchMemTable:AfterNewWal", true, false},
        {"DBImpl::BackgroundFlush:Start", true, false},
        {"DBImpl::BackgroundFlush:BuiltTables", true, false},
        {"DBImpl::BackgroundFlush:Installed", true, false},
        {"DBImpl::BackgroundFlush:ManifestCommitted", true, false},
        {"DBImpl::BackgroundFlush:WalsDeleted", true, false},
        {"WriteManifest:AfterTmpWrite", true, false},
        {"WriteManifest:AfterRename", true, false},
        {"PmPool::Allocate:BeforeCommit", true, false},
        {"DBImpl::InternalCompaction:Outputs", false, true},
        {"DBImpl::InternalCompaction:AfterManifest", false, true},
        // Subcompaction pipeline cuts: BeforeRun dies with victim claims
        // held but no output started, AfterRun with every slice output
        // sealed but none opened, OutputsOpened with the outputs opened and
        // stitched but the install/manifest commit not yet run. A crash at
        // any of them must recover with zero orphan .sst files and the
        // pre-compaction state intact.
        {"DBImpl::MajorCompaction:BeforeRun", false, true},
        {"DBImpl::MajorCompaction:AfterRun", false, true},
        {"DBImpl::MajorCompaction:OutputsOpened", false, true},
        {"DBImpl::MajorCompaction:AfterManifest", false, true},
        // Cuts around the background scheduler's job boundaries: BeforeJob
        // dies with work handed off but not started, AfterJob right after a
        // compaction (or its failure cleanup) finished. Flushes are what
        // feed the scheduler, so bias the workload toward them.
        {"CompactionScheduler::BeforeJob", true, false},
        {"CompactionScheduler::AfterJob", true, false},
    };
    return sites;
  }

  Options MakeOptions() {
    Options options;
    options.env = &crash_env_;
    options.raw_env = &crash_env_;  // major compaction I/O must die too
    options.memtable_bytes = 16 << 10;  // rotate often
    options.pm_pool_capacity = 64 << 20;
    options.pm_latency.inject_latency = false;
    options.l0_layout = opts_.l0_layout;
    options.wal_in_pm = opts_.wal_in_pm;
    options.pm_crash_sim = opts_.pm_crash_sim;
    options.partition_boundaries = {Key(kKeyspace / 3),
                                    Key(2 * kKeyspace / 3)};
    options.l0_table_trigger = 4;
    options.compaction_workers = opts_.compaction_workers;
    options.max_subcompactions = opts_.max_subcompactions;
    options.compaction_policy = opts_.compaction_policy;
    if (opts_.compaction_policy != "leveled") {
      // Tight Eq. 3 budgets so background evictions fire within a cycle's
      // few flushes and the run stacks — the thing a non-leveled policy run
      // is here to crash — actually form before the power cut.
      options.cost.tau_m = 8 << 10;
      options.cost.tau_t = 1 << 10;
    }
    if (opts_.max_subcompactions > 1) {
      // Multi-table sorted/level-1 runs so the split rule has boundaries to
      // cut at — otherwise every victim degenerates to one slice.
      options.internal_table_target_bytes = 8 << 10;
    }
    return options;
  }

  std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    return buf;
  }

  bool CheckDb(DB* db, std::string* why) {
    KvMap recovered;
    Status s = DumpDb(db, &recovered);
    if (!s.ok()) {
      *why = "dump failed: " + s.ToString();
      return false;
    }
    return model_.CheckRecovered(recovered, why);
  }

  // Right after a reopen the DB is quiescent (WAL replay never rotates the
  // memtable, so no background flush or compaction is in flight) and startup
  // GC has run: every .sst in the directory must be referenced by the
  // manifest. A file that isn't is an orphan a crashed flush or compaction
  // leaked.
  bool CheckNoOrphanSstFiles(std::string* why) {
    ManifestState state;
    Status s = ReadManifest(&crash_env_, opts_.dbname, &state);
    std::set<uint64_t> referenced;
    if (s.ok()) {
      for (const ManifestPartition& p : state.partitions) {
        referenced.insert(p.unsorted_file_numbers.begin(),
                          p.unsorted_file_numbers.end());
        referenced.insert(p.sorted_file_numbers.begin(),
                          p.sorted_file_numbers.end());
        for (const ManifestSsdRun& run : p.ssd_runs) {
          referenced.insert(run.file_numbers.begin(), run.file_numbers.end());
        }
      }
    } else if (!s.IsNotFound()) {  // no manifest yet: nothing is referenced
      *why = "manifest read failed: " + s.ToString();
      return false;
    }
    std::vector<std::string> children;
    s = crash_env_.GetChildren(opts_.dbname, &children);
    if (!s.ok()) {
      *why = "listing db dir failed: " + s.ToString();
      return false;
    }
    for (const std::string& child : children) {
      if (child.size() <= 4 ||
          child.compare(child.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      const uint64_t number = strtoull(child.c_str(), nullptr, 10);
      if (referenced.count(number) == 0) {
        *why = "orphan sst after reopen: " + child;
        return false;
      }
    }
    return true;
  }

  bool RunCycle(const Options& options, int cycle,
                CrashHarnessResult* result) {
    crash_env_.ResetState();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, opts_.dbname, &db);
    if (!s.ok()) {
      result->failure = "reopen failed: " + s.ToString();
      return false;
    }
    std::string why;
    if (!CheckDb(db.get(), &why)) {
      result->failure = why;
      return false;
    }
    if (!CheckNoOrphanSstFiles(&why)) {
      result->failure = why;
      return false;
    }

    // ---- crash plan ----
    PowerCutOptions cut;
    cut.keep_unsynced = rnd_.Uniform(2) == 0;
    cut.tear_last_block = cut.keep_unsynced && rnd_.Uniform(2) == 0;
    const uint64_t pm_seed = rnd_.Next();
    const double pm_survival = rnd_.Uniform(3) * 0.5;  // 0, .5 or 1

#ifdef PMBLADE_SYNC_POINTS
    const bool use_syncpoint = rnd_.Uniform(10) < 6;
#else
    const bool use_syncpoint = false;  // release build: between-op cuts only
#endif
    const CrashSite* site = nullptr;
    std::atomic<int> countdown{0};
    std::atomic<bool> crash_fired{false};
    PmPool* pool = static_cast<DBImpl*>(db.get())->pm_pool();
    auto fire = [&] {
      if (crash_fired.exchange(true)) return;
      crash_env_.PowerCut(cut);
      if (opts_.pm_crash_sim) pool->SimulateCrash(pm_seed, pm_survival);
    };
#ifdef PMBLADE_SYNC_POINTS
    if (use_syncpoint) {
      site = &Sites()[rnd_.Uniform(static_cast<uint32_t>(Sites().size()))];
      countdown.store(static_cast<int>(rnd_.Uniform(4)));
      SyncPoint::GetInstance()->SetCallBack(site->point, [&](void*) {
        if (countdown.fetch_sub(1) <= 0) fire();
      });
      SyncPoint::GetInstance()->EnableProcessing();
    }
#endif
    const int planned_ops =
        1 + static_cast<int>(
                rnd_.Uniform(static_cast<uint32_t>(opts_.max_ops_per_cycle)));

    // ---- workload ----
    int op = 0;
    for (; op < planned_ops; ++op) {
      const uint32_t roll = rnd_.Uniform(100);
      Status op_status;
      bool mark_durable_on_ok = false;
      if (roll < 3 || (site != nullptr && site->needs_flush && roll < 15)) {
        op_status = db->FlushMemTable();
        mark_durable_on_ok = true;
      } else if (roll < 5 ||
                 (site != nullptr && site->needs_compaction && roll < 15)) {
        op_status = rnd_.Uniform(2) == 0
                        ? db->CompactLevel0()
                        : db->CompactToLevel1(rnd_.Uniform(2) == 0);
      } else {
        ModelBatch batch = RandomBatch();
        WriteBatch wb;
        for (const ModelOp& mop : batch) {
          if (mop.is_delete) {
            wb.Delete(mop.key);
          } else {
            wb.Put(mop.key, mop.value);
          }
        }
        WriteOptions wopts;
        wopts.sync = rnd_.Uniform(4) == 0;
        model_.RecordBatch(std::move(batch));
        op_status = db->Write(wopts, &wb);
        mark_durable_on_ok = wopts.sync;
      }
      ++result->ops_issued;
      if (op_status.ok()) {
        if (mark_durable_on_ok) model_.MarkDurable();
      } else if (crash_fired.load() || crash_env_.dead() ||
                 (opts_.pm_crash_sim && pool->crash_sim_dead())) {
        break;  // died mid-operation, as planned
      } else {
        result->failure = "unexpected op error (cycle " +
                          std::to_string(cycle) + ", op " +
                          std::to_string(op) + "): " + op_status.ToString();
        Teardown(&db);
        return false;
      }
    }

    // The sync-point may never have been reached; cut between ops instead.
    const bool was_syncpoint_crash = crash_fired.load();
    fire();
    if (was_syncpoint_crash) {
      ++result->syncpoint_crashes;
    } else {
      ++result->between_op_crashes;
    }
    if (opts_.verbose) {
      fprintf(stderr, "cycle %d: %s crash after %d/%d ops (%s)\n", cycle,
              was_syncpoint_crash ? "syncpoint" : "between-op", op,
              planned_ops, site != nullptr ? site->point : "-");
    }
    Teardown(&db);
    return true;
  }

  void Teardown(std::unique_ptr<DB>* db) {
    // Stop sync-point processing BEFORE joining the background thread (a
    // callback capturing this cycle's locals must never fire again), then
    // drop the callbacks once nothing can be running them.
#ifdef PMBLADE_SYNC_POINTS
    SyncPoint::GetInstance()->DisableProcessing();
#endif
    db->reset();
#ifdef PMBLADE_SYNC_POINTS
    SyncPoint::GetInstance()->Reset();
#endif
  }

  ModelBatch RandomBatch() {
    ModelBatch batch;
    const int n = rnd_.Uniform(5) == 0
                      ? 2 + static_cast<int>(rnd_.Uniform(7))
                      : 1;
    for (int i = 0; i < n; ++i) {
      ModelOp op;
      op.key = Key(static_cast<int>(rnd_.Uniform(kKeyspace)));
      op.is_delete = rnd_.Uniform(5) == 0;
      if (!op.is_delete) {
        op.value.assign(rnd_.Uniform(120) + 1,
                        static_cast<char>('a' + rnd_.Uniform(26)));
        // Tag with a nonce so overwrites are distinguishable.
        op.value += "#" + std::to_string(rnd_.Next() % 100000);
      }
      batch.push_back(std::move(op));
    }
    return batch;
  }

  static constexpr int kKeyspace = 400;

  CrashHarnessOptions opts_;
  Random rnd_;
  CrashEnv crash_env_;
  CrashModel model_;
};

}  // namespace test
}  // namespace pmblade

#endif  // PMBLADE_TESTS_CRASH_HARNESS_H_
