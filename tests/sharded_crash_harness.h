// Randomized crash-recovery driver for the SHARDED engine's cross-shard
// atomicity, shared by tests/crash_recovery_test.cc and tools/crash_stress.
//
// Each cycle: open a 4-shard ShardedDB under a CrashEnv, verify every
// batch the model remembers is ALL-or-NOTHING in the recovered state, run
// a workload of cross-shard and single-shard WriteBatches (unique,
// never-reused keys, so presence is unambiguous) with occasional facade
// flushes, then power-cut the machine — between operations or from a
// SyncPoint callback inside the two-phase commit (after a shard's prepare
// fsync, between the prepare and commit waves, after a commit append,
// before publish, at WAL-rotation carry-forward) — and loop.
//
// The invariants, checked against the recovered state after every reopen:
//   * NO batch may ever be partially present — a cross-shard batch whose
//     keys straddle shard WALs must recover either whole or not at all
//     (this is the property 2PC exists to provide; a recovery that applies
//     different verdicts to one txn's participants fails it);
//   * an ACKNOWLEDGED cross-shard batch must be fully present: phase-1
//     prepares are always fsynced, so the ack implies durability even for
//     sync=false writes (upgraded durability);
//   * an acknowledged sync=true batch of any shape must be fully present.
//
// Unlike tests/crash_harness.h there is no global-prefix write model: each
// shard's WAL tears independently, so "visible state is a prefix of the
// issued writes" does not hold across shards — all-or-nothing per batch is
// the sharded contract. With the WAL in PM (the default) every shard's
// pool runs in crash-simulation mode and dies with the power cut, so a
// shard's log loses exactly what was never persisted.

#ifndef PMBLADE_TESTS_SHARDED_CRASH_HARNESS_H_
#define PMBLADE_TESTS_SHARDED_CRASH_HARNESS_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/sharded_db.h"
#include "env/crash_env.h"
#include "memtable/write_batch.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace pmblade {
namespace test {

struct ShardedCrashHarnessOptions {
  std::string dbname;
  uint64_t seed = 0xb1adeu;  // fixed default: CI failures replay exactly
  int cycles = 100;
  uint32_t num_shards = 4;
  int max_ops_per_cycle = 40;
  /// Start from a fresh DB every this many cycles so the model (and the
  /// per-reopen check cost) stays bounded.
  int fresh_db_period = 20;
  /// Called before every reopen, when no SyncPoint callback is installed:
  /// where the meta-test proving the checker has teeth installs its fault.
  std::function<void()> before_open;
  /// SSD compaction shape for every shard (Options::compaction_policy).
  std::string compaction_policy = "leveled";
  /// WAL device under test (Options::wal_in_pm). A PM WAL turns on
  /// Options::pm_crash_sim.
  bool wal_in_pm = true;
  bool verbose = false;
  std::function<bool()> stop_requested;
};

struct ShardedCrashHarnessResult {
  int cycles_run = 0;
  int syncpoint_crashes = 0;
  int between_op_crashes = 0;
  long long batches_issued = 0;
  long long cross_shard_batches = 0;
  int failed_cycle = -1;
  bool interrupted = false;
  std::string failure;  // empty = every invariant held
  bool ok() const { return failure.empty(); }
};

class ShardedCrashHarness {
 public:
  explicit ShardedCrashHarness(const ShardedCrashHarnessOptions& opts)
      : opts_(opts), rnd_(opts.seed), crash_env_(PosixEnv(), opts.seed) {}

  ShardedCrashHarnessResult Run() {
    ShardedCrashHarnessResult result;
    Options options = MakeOptions();
    for (int cycle = 0; cycle < opts_.cycles; ++cycle) {
      if (opts_.stop_requested && opts_.stop_requested()) {
        result.interrupted = true;
        break;
      }
      if (cycle % opts_.fresh_db_period == 0) {
        crash_env_.ResetState();
        DestroyDB(options, opts_.dbname);
        batches_.clear();
      }
      if (!RunCycle(options, cycle, &result)) {
        result.failed_cycle = cycle;
        return result;
      }
      ++result.cycles_run;
    }
    // Final reopen: the last crash's image must also check out.
    crash_env_.ResetState();
    if (opts_.before_open) opts_.before_open();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, opts_.dbname, &db);
    if (!s.ok()) {
      result.failure = "final reopen failed: " + s.ToString();
      return result;
    }
    std::string why;
    if (!CheckBatches(db.get(), &why)) {
      result.failure = "final check: " + why;
      return result;
    }
    db.reset();
    DestroyDB(options, opts_.dbname);
    return result;
  }

 private:
  /// One issued WriteBatch the checker replays: unique keys with their
  /// unique values, whether it spanned shards, and how it was acked.
  struct BatchRecord {
    std::vector<std::pair<std::string, std::string>> kvs;
    bool multi_shard = false;
    bool acked = false;
    bool synced = false;
  };

  struct CrashSite {
    const char* point;
    bool needs_flush;  // workload must flush to reach it
  };
  static const std::vector<CrashSite>& Sites() {
    static const std::vector<CrashSite> sites = {
        // The 2PC seams: after one participant's prepare is durable (its
        // siblings may not be), between the prepare and commit waves, after
        // a commit marker hits a WAL (unsynced), just before publish.
        {"DBImpl::PrepareTxn:AfterSync", false},
        {"ShardedDB::Write:AfterPrepare", false},
        {"DBImpl::CommitTxn:AfterAppend", false},
        {"DBImpl::CommitTxn:BeforePublish", false},
        // Retained-fence carry-forward at WAL rotation, and the plain
        // write-path/flush cuts on whichever shard trips them first.
        {"DBImpl::NewWal:TxnRecordsCarried", true},
        {"DBImpl::Write:AfterWalAppend", false},
        {"DBImpl::Write:AfterWalSync", false},
        {"DBImpl::SwitchMemTable:AfterNewWal", true},
        {"DBImpl::BackgroundFlush:Installed", true},
        {"DBImpl::BackgroundFlush:WalsDeleted", true},
    };
    return sites;
  }

  Options MakeOptions() {
    Options options;
    options.env = &crash_env_;
    options.raw_env = &crash_env_;
    options.num_shards = opts_.num_shards;
    options.memtable_bytes = 16 << 10;  // rotate + flush often (per shard)
    options.pm_pool_capacity = 16 << 20;  // per shard
    options.pm_latency.inject_latency = false;
    options.compaction_policy = opts_.compaction_policy;
    options.wal_in_pm = opts_.wal_in_pm;
    options.pm_crash_sim = opts_.wal_in_pm;
    return options;
  }

  /// A fresh, never-before-used key routed to `shard`. Unique keys make
  /// the all-or-nothing check unambiguous: a key is either this batch's
  /// write or absent — no overwrite can mask a torn batch.
  std::string FreshKeyFor(uint32_t shard) {
    for (uint64_t probe = 0;; ++probe) {
      std::string key = "u" + std::to_string(next_key_id_) + "x" +
                        std::to_string(probe);
      if (ShardedDB::ShardOfKey(key, opts_.num_shards) == shard) {
        ++next_key_id_;
        return key;
      }
    }
  }

  bool CheckBatches(DB* db, std::string* why) {
    for (size_t i = 0; i < batches_.size(); ++i) {
      const BatchRecord& batch = batches_[i];
      size_t present = 0;
      for (const auto& kv : batch.kvs) {
        std::string value;
        Status s = db->Get(ReadOptions(), kv.first, &value);
        if (s.ok()) {
          if (value != kv.second) {
            *why = "batch " + std::to_string(i) + ": key " + kv.first +
                   " has foreign value";
            return false;
          }
          ++present;
        } else if (!s.IsNotFound()) {
          *why = "read error on " + kv.first + ": " + s.ToString();
          return false;
        }
      }
      if (present != 0 && present != batch.kvs.size()) {
        *why = "batch " + std::to_string(i) + " recovered TORN: " +
               std::to_string(present) + "/" +
               std::to_string(batch.kvs.size()) + " keys present" +
               (batch.multi_shard ? " (cross-shard)" : "");
        return false;
      }
      const bool must_survive =
          batch.acked && (batch.synced || batch.multi_shard);
      if (must_survive && present != batch.kvs.size()) {
        *why = "batch " + std::to_string(i) + " was acked" +
               (batch.multi_shard ? " (cross-shard => prepares fsynced)"
                                  : " (sync=true)") +
               " but lost after reopen";
        return false;
      }
    }
    return true;
  }

  bool RunCycle(const Options& options, int cycle,
                ShardedCrashHarnessResult* result) {
    crash_env_.ResetState();
    if (opts_.before_open) opts_.before_open();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, opts_.dbname, &db);
    if (!s.ok()) {
      result->failure = "reopen failed: " + s.ToString();
      return false;
    }
    std::string why;
    if (!CheckBatches(db.get(), &why)) {
      result->failure = why;
      Teardown(&db);
      return false;
    }

    // ---- crash plan ----
    PowerCutOptions cut;
    cut.keep_unsynced = rnd_.Uniform(2) == 0;
    cut.tear_last_block = cut.keep_unsynced && rnd_.Uniform(2) == 0;
#ifdef PMBLADE_SYNC_POINTS
    const bool use_syncpoint = rnd_.Uniform(10) < 6;
#else
    const bool use_syncpoint = false;
#endif
    const CrashSite* site = nullptr;
    std::atomic<int> countdown{0};
    std::atomic<bool> crash_fired{false};
    // Drawn only for a PM WAL, so an SSD-WAL seed replays its old plans.
    const uint64_t pm_seed = opts_.wal_in_pm ? rnd_.Next() : 0;
    const double pm_survival =
        opts_.wal_in_pm ? rnd_.Uniform(3) * 0.5 : 0.0;  // 0, .5 or 1
    std::vector<PmPool*> pools;
    if (auto* sharded = dynamic_cast<ShardedDB*>(db.get())) {
      for (uint32_t i = 0; i < sharded->num_shards(); ++i) {
        pools.push_back(sharded->shard(i)->pm_pool());
      }
    } else {
      pools.push_back(static_cast<DBImpl*>(db.get())->pm_pool());
    }
    auto fire = [&] {
      if (crash_fired.exchange(true)) return;
      crash_env_.PowerCut(cut);
      for (size_t i = 0; i < pools.size(); ++i) {
        pools[i]->SimulateCrash(pm_seed + i, pm_survival);  // crash_sim only
      }
    };
#ifdef PMBLADE_SYNC_POINTS
    if (use_syncpoint) {
      site = &Sites()[rnd_.Uniform(static_cast<uint32_t>(Sites().size()))];
      // 2PC sites fire once per participant, so a small countdown lands the
      // cut on different shards of the same batch across cycles.
      countdown.store(static_cast<int>(rnd_.Uniform(6)));
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
    for (int op = 0; op < planned_ops; ++op) {
      const uint32_t roll = rnd_.Uniform(100);
      if (roll < 5 || (site != nullptr && site->needs_flush && roll < 20)) {
        // Facade flush (all shards): exercises fence retention across
        // memtable flushes and the carry-forward path at WAL rotation.
        Status flush_status = db->FlushMemTable();
        if (!flush_status.ok() &&
            !(crash_fired.load() || crash_env_.dead())) {
          result->failure = "unexpected flush error (cycle " +
                            std::to_string(cycle) +
                            "): " + flush_status.ToString();
          Teardown(&db);
          return false;
        }
        if (crash_fired.load() || crash_env_.dead()) break;
        continue;
      }

      // 70% cross-shard batches (the protocol under test), 30% single-shard
      // (the fast path must coexist in the same WALs). One cross-shard
      // batch in 16 is a bulk batch of more than 64 entries, whose prepare
      // and commit waves run in parallel on the fan-out pool; every other
      // batch is small enough for the inline waves.
      BatchRecord record;
      std::vector<uint32_t> shards;
      bool bulk = false;
      if (rnd_.Uniform(10) < 7 && opts_.num_shards > 1) {
        bulk = rnd_.Uniform(16) == 0;
        const uint32_t n_shards =
            2 + rnd_.Uniform(opts_.num_shards - 1);  // 2..num_shards
        uint32_t first = rnd_.Uniform(opts_.num_shards);
        for (uint32_t i = 0; i < n_shards; ++i) {
          shards.push_back((first + i) % opts_.num_shards);
        }
        record.multi_shard = true;
      } else {
        shards.push_back(rnd_.Uniform(opts_.num_shards));
      }
      WriteBatch wb;
      const std::string token = "v" + std::to_string(next_key_id_);
      for (uint32_t shard : shards) {
        // 1-2 keys per participating shard; a bulk batch puts 33 on each
        // of its at least two shards.
        const int keys = bulk ? 33 : 1 + static_cast<int>(rnd_.Uniform(2));
        for (int k = 0; k < keys; ++k) {
          std::string key = FreshKeyFor(shard);
          wb.Put(key, token);
          record.kvs.emplace_back(std::move(key), token);
        }
      }
      record.synced = rnd_.Uniform(4) == 0;
      WriteOptions wopts;
      wopts.sync = record.synced;
      Status op_status = db->Write(wopts, &wb);
      record.acked = op_status.ok();
      batches_.push_back(std::move(record));
      ++result->batches_issued;
      if (batches_.back().multi_shard) ++result->cross_shard_batches;
      if (!op_status.ok()) {
        if (crash_fired.load() || crash_env_.dead()) break;
        result->failure = "unexpected write error (cycle " +
                          std::to_string(cycle) + ", op " +
                          std::to_string(op) + "): " + op_status.ToString();
        Teardown(&db);
        return false;
      }
    }

    const bool was_syncpoint_crash = crash_fired.load();
    fire();
    if (was_syncpoint_crash) {
      ++result->syncpoint_crashes;
    } else {
      ++result->between_op_crashes;
    }
    if (opts_.verbose) {
      fprintf(stderr,
              "sharded cycle %d: %s crash (%s) keep_unsynced=%d tear=%d "
              "batches=%zu\n",
              cycle, was_syncpoint_crash ? "syncpoint" : "between-op",
              site != nullptr ? site->point : "-", cut.keep_unsynced ? 1 : 0,
              cut.tear_last_block ? 1 : 0, batches_.size());
    }
    Teardown(&db);
    return true;
  }

  void Teardown(std::unique_ptr<DB>* db) {
#ifdef PMBLADE_SYNC_POINTS
    SyncPoint::GetInstance()->DisableProcessing();
#endif
    db->reset();
#ifdef PMBLADE_SYNC_POINTS
    SyncPoint::GetInstance()->Reset();
#endif
  }

  ShardedCrashHarnessOptions opts_;
  Random rnd_;
  CrashEnv crash_env_;
  uint64_t next_key_id_ = 0;
  std::vector<BatchRecord> batches_;
};

}  // namespace test
}  // namespace pmblade

#endif  // PMBLADE_TESTS_SHARDED_CRASH_HARNESS_H_
