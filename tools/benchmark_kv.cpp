// benchmark_kv — the paper's micro-benchmark tool (Section VI-A): a
// db_bench-style driver over the KvEngine interface, extended with record
// tables and secondary-index tables.
//
// Usage:
//   benchmark_kv [--engine=pmblade|pmblade-pm|pmblade-ssd|rocks|matrixkv]
//                [--benchmarks=fillseq,readrandom,...]
//                [--num=N] [--value_size=B] [--zipf=THETA]
//                [--scan_length=N] [--inject_latency=true|false]
//                [--writers=N] [--sync_writes=true|false]
//                [--shards=N] [--compaction_workers=N]
//                [--policy=leveled|tiered|lazy_leveling]
//                [--size_ratio=T] [--ssd_levels=L]
//                [--stats_dump=json|prometheus|both]
//
// --shards=N opens the pmblade configs as an N-way ShardedDB (hash-routed
// independent engines; see src/core/sharded_db.h). The baselines ignore it.
//
// --stats_dump prints the pmblade engine's full observability snapshot
// (metrics registry + recent trace events) after the benchmark list runs.
//
// Benchmarks:
//   fillseq      sequential inserts            fillrandom  random inserts
//   overwrite    random overwrites             readrandom  random point reads
//   readmissing  reads of absent keys          readseq     full forward scan
//   seekrandom   random seeks + short scans    deleterandom random deletes
//   indexfill    insert rows into a record table (+3 index tables)
//   indexquery   secondary-index queries (scan + verify + point reads)
//   mixed        50/50 zipfian read/update
//   write_scaling concurrent-writer sweep (1..--writers threads of random
//                puts, sync per --sync_writes), each point with the SSD WAL
//                and the PM WAL; reopens the engine fresh per run and emits
//                BENCH_write_scaling.json
//   compaction_parallel sweep of the parallel compaction pipeline: fresh
//                engine per point with compaction_workers =
//                max_subcompactions = 1, 2, 4 (.. --compaction_workers),
//                same randomized write stream each time, measuring the
//                wall time of forced major compactions over identical
//                level-0 state; emits BENCH_compaction_parallel.json
//   read_skew    zipfian point-read sweep over SSD-resident data (2x the
//                loaded keyspace, so half the probes are absent keys) on a
//                fresh engine per point: no_filter baseline, bloom+cache,
//                and bloom+cache+memory-arbiter; reports cold-read ops/s,
//                SSD reads per Get, bloom rejections and cache hit ratio,
//                then flips the arbiter point to a write-heavy phase to show
//                the budget shifting; emits BENCH_read_path.json
//   shard_scaling shard-count sweep (1,2,4,..,max(--shards,8)) under a fixed
//                pool of mixed read/write client threads, fresh engine per
//                point; reports ops/s and the speedup over the 1-shard
//                baseline; emits BENCH_shard_scaling.json
//   policy_sweep compaction design-space sweep: leveled vs tiered vs
//                lazy_leveling SSD shapes, one fresh engine per policy,
//                running fill-heavy, read-heavy zipfian, and 50/50 mixed
//                phases; reports ops/s, write-amp (compaction bytes over
//                user bytes, both from engine properties), space-amp, run
//                counts and SSD reads per Get; emits
//                BENCH_compaction_policy.json. Needs --engine=pmblade.
//   flush        force a memtable flush        compact     force L0->L1
//   stats        print engine statistics

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "benchutil/reporter.h"
#include "compaction/policy/compaction_picker.h"
#include "benchutil/runner.h"
#include "core/sharded_db.h"
#include "benchutil/table_codec.h"
#include "benchutil/workload.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/histogram.h"

using namespace pmblade;        // NOLINT
using namespace pmblade::bench; // NOLINT

namespace {

struct Context {
  KvEngine* engine = nullptr;
  BenchEnv* env = nullptr;
  uint64_t num = 10000;
  size_t value_size = 256;
  double zipf = 0.99;
  int scan_length = 50;
  int writers = 1;
  int compaction_workers = 4;
  uint32_t shards = 1;
  bool sync_writes = false;
  Clock* clock = SystemClock();
};

void Report(const char* name, uint64_t ops, uint64_t nanos,
            const Histogram& latency) {
  double micros_per_op = ops > 0 ? nanos / 1000.0 / ops : 0;
  double ops_per_sec = nanos > 0 ? ops * 1e9 / nanos : 0;
  printf("%-12s : %9.3f us/op; %10.0f ops/sec; p99 %9.3f us (%llu ops)\n",
         name, micros_per_op, ops_per_sec, latency.Percentile(99) / 1000.0,
         static_cast<unsigned long long>(ops));
  fflush(stdout);
}

#define RUN_OP(expr)                                             \
  do {                                                           \
    Status _s = (expr);                                          \
    if (!_s.ok() && !_s.IsNotFound()) {                          \
      fprintf(stderr, "op failed: %s\n", _s.ToString().c_str()); \
      exit(1);                                                   \
    }                                                            \
  } while (0)

// Concurrent-writer sweep: 1, 2, 4, ... up to --writers threads of random
// puts (sync per --sync_writes), each point once with the WAL on the SSD
// and once in PM (Options::wal_in_pm). Each run reopens the engine fresh so
// the runs are independent, then reads the group-commit counters to report
// how well the WAL syncs amortized. Emits BENCH_write_scaling.json.
void RunWriteScaling(Context* ctx) {
  std::vector<int> points;
  for (int t = 1; t < ctx->writers; t *= 2) points.push_back(t);
  if (ctx->writers >= 1) points.push_back(ctx->writers);

  const BenchEnvOptions saved = *ctx->env->mutable_options();
  // "syncs" counts the sync barriers the groups asked for: fsyncs with the
  // SSD WAL, free with the PM WAL, whose appends are durable on return.
  TablePrinter table({"writers", "wal", "ops/sec", "p99(us)", "groups",
                      "writes/group", "syncs", "ssd writes/put"});
  std::string json = "[\n";

  for (size_t pi = 0; pi < points.size(); ++pi) {
    if (InterruptRequested()) break;  // partial JSON still written below
    const int threads = points[pi];
    std::string row_json = "  {\"writers\": " + std::to_string(threads);
    for (const bool wal_in_pm : {false, true}) {
      const char* wal = wal_in_pm ? "pm" : "ssd";
      ctx->env->mutable_options()->wal_in_pm = wal_in_pm;
      KvEngine* engine = nullptr;
      Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
      if (!s.ok()) {
        fprintf(stderr, "write_scaling reopen: %s\n", s.ToString().c_str());
        exit(1);
      }
      ctx->engine = engine;
      DB* db = ctx->env->pmblade_db();
      const uint64_t ssd_writes_before = ctx->env->ssd_model()->writes();

      KeySpec spec;
      spec.num_keys = ctx->num;
      KeyGenerator keys(spec);
      ValueGenerator values(ctx->value_size);
      const uint64_t per_thread = ctx->num / threads;

      Histogram latency;
      std::mutex merge_mu;
      const uint64_t start = ctx->clock->NowNanos();
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          Random rng(301 + t);
          Histogram local;
          WriteOptions wopts;
          wopts.sync = ctx->sync_writes;
          for (uint64_t i = 0; i < per_thread && !InterruptRequested(); ++i) {
            uint64_t k = rng.Uniform(ctx->num);
            uint64_t t0 = ctx->clock->NowNanos();
            if (db != nullptr) {
              RUN_OP(db->Put(wopts, keys.KeyAt(k), values.For(k)));
            } else {
              RUN_OP(ctx->engine->Put(keys.KeyAt(k), values.For(k)));
            }
            local.Add(ctx->clock->NowNanos() - t0);
          }
          std::lock_guard<std::mutex> lock(merge_mu);
          latency.Merge(local);
        });
      }
      for (auto& w : workers) w.join();
      const uint64_t nanos = ctx->clock->NowNanos() - start;

      const uint64_t ops = per_thread * threads;
      const double ops_per_sec = nanos > 0 ? ops * 1e9 / nanos : 0;
      const double p99_us = latency.Percentile(99) / 1000.0;
      uint64_t syncs = 0, groups = 0, group_writes = 0;
      if (db != nullptr) {
        db->GetProperty("pmblade.wal-syncs", &syncs);
        db->GetProperty("pmblade.write-groups", &groups);
        db->GetProperty("pmblade.write-group-writes", &group_writes);
      }
      const double writes_per_group =
          groups > 0 ? static_cast<double>(group_writes) / groups : 0;
      // Flushes and compactions write the SSD too, so this is an upper
      // bound on the WAL's share: 1 per put (ungrouped) with the SSD WAL.
      const double ssd_writes_per_put =
          ops > 0 ? static_cast<double>(ctx->env->ssd_model()->writes() -
                                        ssd_writes_before) /
                        ops
                  : 0;

      char row[96];
      snprintf(row, sizeof(row), "%d writers, %s wal", threads, wal);
      Report(row, ops, nanos, latency);
      table.AddRow({std::to_string(threads), wal,
                    TablePrinter::Fmt(ops_per_sec, 0),
                    TablePrinter::Fmt(p99_us, 1), std::to_string(groups),
                    TablePrinter::Fmt(writes_per_group, 2),
                    std::to_string(syncs),
                    TablePrinter::Fmt(ssd_writes_per_put, 3)});

      char point[320];
      snprintf(point, sizeof(point),
               ", \"%s\": {\"ops\": %llu, \"ops_per_sec\": %.0f, "
               "\"p99_us\": %.2f, \"groups\": %llu, \"writes_per_group\": "
               "%.2f, \"syncs\": %llu, \"ssd_writes_per_put\": %.4f}",
               wal, static_cast<unsigned long long>(ops), ops_per_sec, p99_us,
               static_cast<unsigned long long>(groups), writes_per_group,
               static_cast<unsigned long long>(syncs), ssd_writes_per_put);
      row_json += point;
    }
    json += row_json + "}" + (pi + 1 < points.size() ? ",\n" : "\n");
  }
  *ctx->env->mutable_options() = saved;
  // An interrupted run stops after a point that still wrote its separator.
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]\n";

  table.Print("write_scaling (sync=" +
              std::string(ctx->sync_writes ? "true" : "false") + ")");
  FILE* out = fopen("BENCH_write_scaling.json", "w");
  if (out != nullptr) {
    fputs(json.c_str(), out);
    fclose(out);
    printf("wrote BENCH_write_scaling.json\n");
  }
}

// Parallel-compaction sweep: the same randomized write stream is pushed
// through fresh engines with compaction_workers = max_subcompactions = 1,
// 2, 4, ... — the compactor's merge pool is widened to match (see
// BenchEnv::OpenEngine), so the sweep scales the whole pipeline width:
// scheduler workers, key-range slices per victim, and merge threads. The
// memtable is shrunk so level-0 piles up multi-table runs, and the level-0
// budget is raised out of reach so no BACKGROUND major fires: every point
// reaches the timed section with the identical level-0 state, and the
// measured quantity is the wall time of
// two forced major compactions (sorted-run-only first, then sorted+level-1
// after a second fill — the stitched level-1 from round one feeds round
// two's split rule). The fill phase (4 producer threads) is reported too,
// for the tail-latency impact of the widened pipeline on the write path.
// Emits BENCH_compaction_parallel.json.
void RunCompactionParallel(Context* ctx) {
  const BenchEnvOptions saved = *ctx->env->mutable_options();
  BenchEnvOptions* opts = ctx->env->mutable_options();
  // Small fixed memtable so level-0 accumulates a multi-table sorted run
  // (internal compaction targets 4x the memtable), without flooding the PM
  // pool directory with hundreds of tiny tables.
  if (opts->memtable_bytes > (128 << 10)) opts->memtable_bytes = 128 << 10;
  // Out-of-reach budget: internal compactions still sort level-0, but the
  // cost model never schedules a background major, so the forced majors
  // below see the same input at every sweep point.
  opts->l0_budget_large = 4ull << 30;
  // Single partition: the scenario key-range subcompactions target. A
  // multi-partition major already merges its victims as concurrent
  // subtasks (one per partition) at workers=1, so the per-victim split is
  // what this sweep isolates: a hot partition's major serializes
  // S1->S2->S3 at queue depth 1 without slices, and runs --workers
  // key-range slices with them.
  opts->partition_boundaries.clear();

  std::vector<int> points;
  for (int w = 1; w < ctx->compaction_workers; w *= 2) points.push_back(w);
  if (ctx->compaction_workers >= 1) points.push_back(ctx->compaction_workers);

  TablePrinter table({"workers", "major(ms)", "fill_ops/s", "fill_p99(us)",
                      "slices", "speedup"});
  std::string json = "[\n";
  double base_major_ms = 0;

  // Best-of-3 per point, fresh engine per rep: the same convention as
  // shard_scaling — on a shared/oversubscribed host a single rep confounds
  // the pipeline with neighbour noise, and the best rep is the one least
  // perturbed by it.
  const int kReps = 3;

  for (size_t pi = 0; pi < points.size(); ++pi) {
    if (InterruptRequested()) break;  // partial JSON still written below
    const int workers = points[pi];
    opts->compaction_workers = workers;
    opts->max_subcompactions = workers;

    KeySpec spec;
    spec.num_keys = ctx->num;
    const int threads = ctx->writers > 4 ? ctx->writers : 4;
    const uint64_t per_thread = ctx->num / 2 / threads;

    Histogram fill_latency;
    uint64_t best_major_nanos = UINT64_MAX;
    uint64_t fill_nanos = 0;
    uint64_t slices = 0;

    for (int rep = 0; rep < kReps && !InterruptRequested(); ++rep) {
      KvEngine* engine = nullptr;
      Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
      if (!s.ok()) {
        fprintf(stderr, "compaction_parallel reopen: %s\n",
                s.ToString().c_str());
        exit(1);
      }
      ctx->engine = engine;
      DB* db = ctx->env->pmblade_db();
      if (db == nullptr) {
        fprintf(stderr,
                "compaction_parallel needs a pmblade engine "
                "(--engine=pmblade|pmblade-pm|pmblade-ssd)\n");
        exit(1);
      }

      // One fill (4 producers, identical streams at every point and rep)
      // followed by one forced full major; two rounds so the second major
      // also merges against the level-1 run the first one stitched.
      Histogram rep_fill_latency;
      std::mutex merge_mu;
      uint64_t rep_fill_nanos = 0;
      uint64_t rep_major_nanos = 0;
      uint64_t rep_slices = 0;
      for (int round = 0; round < 2 && !InterruptRequested(); ++round) {
        const uint64_t fill_start = ctx->clock->NowNanos();
        std::vector<std::thread> producers;
        for (int t = 0; t < threads; ++t) {
          producers.emplace_back([&, t, round] {
            KeyGenerator keys(spec);
            ValueGenerator values(ctx->value_size);
            Random rng(301 + 100 * round + t);
            Histogram local;
            for (uint64_t i = 0; i < per_thread && !InterruptRequested();
                 ++i) {
              uint64_t k = rng.Uniform(ctx->num);
              uint64_t t0 = ctx->clock->NowNanos();
              RUN_OP(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
              local.Add(ctx->clock->NowNanos() - t0);
            }
            std::lock_guard<std::mutex> lock(merge_mu);
            rep_fill_latency.Merge(local);
          });
        }
        for (auto& p : producers) p.join();
        // Prep (untimed): everything into sorted level-0 runs.
        RUN_OP(db->FlushMemTable());
        RUN_OP(db->CompactLevel0());
        rep_fill_nanos += ctx->clock->NowNanos() - fill_start;

        // The measured quantity: one full major compaction, split into
        // key-range slices per max_subcompactions.
        uint64_t slices_before = 0;
        db->GetProperty("pmblade.compaction-subcompactions", &slices_before);
        const uint64_t major_start = ctx->clock->NowNanos();
        RUN_OP(db->CompactToLevel1(false));
        rep_major_nanos += ctx->clock->NowNanos() - major_start;
        uint64_t slices_after = 0;
        db->GetProperty("pmblade.compaction-subcompactions", &slices_after);
        rep_slices += slices_after - slices_before;
      }
      if (rep_major_nanos < best_major_nanos) {
        best_major_nanos = rep_major_nanos;
        fill_nanos = rep_fill_nanos;
        fill_latency = rep_fill_latency;
        slices = rep_slices;
      }
    }
    const uint64_t major_nanos =
        best_major_nanos == UINT64_MAX ? 0 : best_major_nanos;

    const uint64_t fill_ops = per_thread * threads * 2;
    const double major_ms = major_nanos / 1e6;
    const double fill_ops_per_sec =
        fill_nanos > 0 ? fill_ops * 1e9 / fill_nanos : 0;
    const double fill_p99_us = fill_latency.Percentile(99) / 1000.0;
    if (pi == 0) base_major_ms = major_ms;
    const double speedup = major_ms > 0 ? base_major_ms / major_ms : 0;

    char row[96];
    snprintf(row, sizeof(row), "%d workers", workers);
    Report(row, fill_ops, fill_nanos, fill_latency);
    printf("%-12s : major compaction %.1f ms (%llu slices)\n", row,
           major_ms, static_cast<unsigned long long>(slices));
    table.AddRow({std::to_string(workers), TablePrinter::Fmt(major_ms, 1),
                  TablePrinter::Fmt(fill_ops_per_sec, 0),
                  TablePrinter::Fmt(fill_p99_us, 1), std::to_string(slices),
                  TablePrinter::Fmt(speedup, 2) + "x"});

    char point[320];
    snprintf(point, sizeof(point),
             "  {\"workers\": %d, \"major_wall_ms\": %.2f, "
             "\"subcompaction_slices\": %llu, \"fill_ops\": %llu, "
             "\"fill_ops_per_sec\": %.0f, \"fill_p99_us\": %.2f, "
             "\"speedup\": %.3f}%s\n",
             workers, major_ms, static_cast<unsigned long long>(slices),
             static_cast<unsigned long long>(fill_ops), fill_ops_per_sec,
             fill_p99_us, speedup, pi + 1 < points.size() ? "," : "");
    json += point;
  }
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]\n";

  table.Print("compaction_parallel (memtable=" +
              std::to_string(opts->memtable_bytes) +
              "B, forced majors over identical level-0 state)");
  FILE* out = fopen("BENCH_compaction_parallel.json", "w");
  if (out != nullptr) {
    fputs(json.c_str(), out);
    fclose(out);
    printf("wrote BENCH_compaction_parallel.json\n");
  }

  // Restore the configuration the rest of the benchmark list expects.
  *ctx->env->mutable_options() = saved;
  KvEngine* engine = nullptr;
  Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
  if (!s.ok()) {
    fprintf(stderr, "compaction_parallel restore: %s\n",
            s.ToString().c_str());
    exit(1);
  }
  ctx->engine = engine;
}

// Design-space sweep over the pluggable SSD compaction policies: one fresh
// engine per policy, the same three phases against each — fill-heavy
// (sequential unique load + random overwrites), read-heavy zipfian gets,
// and a 50/50 zipfian mix. Write-amp is major-compaction bytes over user
// bytes, both read from engine properties so the CI gate can recompute it
// from BENCH_compaction_policy.json alone; space-amp is resident level-0 +
// SSD bytes over the logical dataset; read cost is the surviving run count
// (sorted runs a point lookup may probe) plus measured SSD reads per Get.
void RunPolicySweep(Context* ctx) {
  if (ctx->env->config() != EngineConfig::kPmBlade) {
    fprintf(stderr,
            "policy_sweep needs --engine=pmblade (the non-leveled policies "
            "ride the cost-model compaction scheduler)\n");
    exit(1);
  }
  const BenchEnvOptions saved = *ctx->env->mutable_options();
  BenchEnvOptions* opts = ctx->env->mutable_options();
  // Small memtable + tight level-0 budget so the cost model evicts to the
  // SSD many times over the run and the shapes actually diverge: leveled
  // rewrites its single run per eviction, tiered stacks runs until a
  // size-ratio block forms, lazy-leveling stacks above a single last level.
  if (opts->memtable_bytes > (128 << 10)) opts->memtable_bytes = 128 << 10;
  opts->l0_budget_large = 768 << 10;

  const char* kPolicies[] = {"leveled", "tiered", "lazy_leveling"};

  // Drain the background scheduler so per-policy byte counts and shapes are
  // settled before sampling properties.
  auto quiesce = [&](DB* db) {
    RUN_OP(db->FlushMemTable());
    for (int i = 0; i < 5000 && !InterruptRequested(); ++i) {
      uint64_t queued = 0, active = 0;
      db->GetProperty("pmblade.compaction-queue-depth", &queued);
      db->GetProperty("pmblade.compaction-active", &active);
      if (queued == 0 && active == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  TablePrinter table({"policy", "fill_ops/s", "write_amp", "space_amp",
                      "ssd_runs", "read_ops/s", "ssd_rd/get", "mixed_ops/s"});
  std::string json = "[\n";

  for (size_t pi = 0; pi < 3; ++pi) {
    if (InterruptRequested()) break;  // partial JSON still written below
    const char* policy = kPolicies[pi];
    opts->compaction_policy = policy;

    KvEngine* engine = nullptr;
    Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
    if (!s.ok()) {
      fprintf(stderr, "policy_sweep open(%s): %s\n", policy,
              s.ToString().c_str());
      exit(1);
    }
    ctx->engine = engine;
    DB* db = ctx->env->pmblade_db();
    if (db == nullptr) {
      fprintf(stderr, "policy_sweep needs a pmblade engine\n");
      exit(1);
    }

    KeySpec spec;
    spec.num_keys = ctx->num;
    KeyGenerator keys(spec);
    ValueGenerator values(ctx->value_size);
    const uint64_t key_bytes = keys.KeyAt(0).size();
    const uint64_t logical_bytes = ctx->num * (key_bytes + ctx->value_size);

    // Phase 1 — fill-heavy: every key once (so the logical dataset is
    // exactly --num keys), then --num/2 random overwrites so compactions
    // have garbage to reclaim.
    Histogram fill_latency;
    Random rng(401 + static_cast<uint32_t>(pi));
    const uint64_t overwrites = ctx->num / 2;
    const uint64_t fill_start = ctx->clock->NowNanos();
    for (uint64_t i = 0; i < ctx->num && !InterruptRequested(); ++i) {
      uint64_t t0 = ctx->clock->NowNanos();
      RUN_OP(db->Put(WriteOptions(), keys.KeyAt(i), values.For(i)));
      fill_latency.Add(ctx->clock->NowNanos() - t0);
    }
    for (uint64_t i = 0; i < overwrites && !InterruptRequested(); ++i) {
      uint64_t k = rng.Uniform(ctx->num);
      uint64_t t0 = ctx->clock->NowNanos();
      RUN_OP(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
      fill_latency.Add(ctx->clock->NowNanos() - t0);
    }
    const uint64_t fill_nanos = ctx->clock->NowNanos() - fill_start;
    const uint64_t fill_ops = ctx->num + overwrites;
    quiesce(db);

    // Post-fill shape + amplification, all from engine properties.
    uint64_t user_bytes = 0, comp_bytes = 0, l0_bytes = 0, ssd_bytes = 0;
    uint64_t ssd_runs = 0, max_level = 0;
    db->GetProperty("pmblade.ssd-user-bytes-written", &user_bytes);
    db->GetProperty("pmblade.ssd-bytes-written", &comp_bytes);
    db->GetProperty("pmblade.l0-bytes", &l0_bytes);
    db->GetProperty("pmblade.ssd-bytes", &ssd_bytes);
    db->GetProperty("pmblade.num-ssd-runs", &ssd_runs);
    db->GetProperty("pmblade.max-ssd-level", &max_level);
    const double write_amp =
        user_bytes > 0 ? static_cast<double>(comp_bytes) / user_bytes : 0;
    const double space_amp =
        logical_bytes > 0
            ? static_cast<double>(l0_bytes + ssd_bytes) / logical_bytes
            : 0;

    // Phase 2 — read-heavy: --num zipfian point reads against the shape the
    // fill left behind (no compaction between phases beyond the quiesce).
    KeySpec zspec;
    zspec.num_keys = ctx->num;
    zspec.zipf_theta = ctx->zipf;
    KeyGenerator zkeys(zspec);
    Histogram read_latency;
    const uint64_t ssd_reads_before = ctx->env->ssd_model()->reads();
    const uint64_t read_start = ctx->clock->NowNanos();
    uint64_t read_ops = 0;
    for (uint64_t i = 0; i < ctx->num && !InterruptRequested(); ++i) {
      uint64_t k = zkeys.NextIndex();
      uint64_t t0 = ctx->clock->NowNanos();
      std::string value;
      RUN_OP(db->Get(keys.KeyAt(k), &value));
      read_latency.Add(ctx->clock->NowNanos() - t0);
      ++read_ops;
    }
    const uint64_t read_nanos = ctx->clock->NowNanos() - read_start;
    const double ssd_reads_per_get =
        read_ops > 0 ? static_cast<double>(ctx->env->ssd_model()->reads() -
                                           ssd_reads_before) /
                           read_ops
                     : 0;

    // Phase 3 — 50/50 zipfian read/update mix.
    Histogram mixed_latency;
    const uint64_t mixed_target = ctx->num / 2;
    const uint64_t mixed_start = ctx->clock->NowNanos();
    uint64_t mixed_ops = 0;
    for (uint64_t i = 0; i < mixed_target && !InterruptRequested(); ++i) {
      uint64_t k = zkeys.NextIndex();
      uint64_t t0 = ctx->clock->NowNanos();
      if (rng.OneIn(2)) {
        std::string value;
        RUN_OP(db->Get(keys.KeyAt(k), &value));
      } else {
        RUN_OP(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
      }
      mixed_latency.Add(ctx->clock->NowNanos() - t0);
      ++mixed_ops;
    }
    const uint64_t mixed_nanos = ctx->clock->NowNanos() - mixed_start;

    const double fill_ops_s =
        fill_nanos > 0 ? fill_ops * 1e9 / fill_nanos : 0;
    const double read_ops_s =
        read_nanos > 0 ? read_ops * 1e9 / read_nanos : 0;
    const double mixed_ops_s =
        mixed_nanos > 0 ? mixed_ops * 1e9 / mixed_nanos : 0;

    char row[64];
    snprintf(row, sizeof(row), "%s/fill", policy);
    Report(row, fill_ops, fill_nanos, fill_latency);
    snprintf(row, sizeof(row), "%s/read", policy);
    Report(row, read_ops, read_nanos, read_latency);
    snprintf(row, sizeof(row), "%s/mixed", policy);
    Report(row, mixed_ops, mixed_nanos, mixed_latency);
    printf("%-12s : write_amp %.2f, space_amp %.2f, %llu runs (max level "
           "%llu), %.2f ssd reads/get\n",
           policy, write_amp, space_amp,
           static_cast<unsigned long long>(ssd_runs),
           static_cast<unsigned long long>(max_level), ssd_reads_per_get);
    table.AddRow({policy, TablePrinter::Fmt(fill_ops_s, 0),
                  TablePrinter::Fmt(write_amp, 2),
                  TablePrinter::Fmt(space_amp, 2), std::to_string(ssd_runs),
                  TablePrinter::Fmt(read_ops_s, 0),
                  TablePrinter::Fmt(ssd_reads_per_get, 2),
                  TablePrinter::Fmt(mixed_ops_s, 0)});

    char point[768];
    snprintf(point, sizeof(point),
             "  {\"policy\": \"%s\", "
             "\"fill\": {\"ops\": %llu, \"ops_per_sec\": %.0f, "
             "\"p99_us\": %.2f, \"write_amp\": %.4f, \"space_amp\": %.4f, "
             "\"user_bytes\": %llu, \"compaction_bytes\": %llu, "
             "\"ssd_runs\": %llu, \"max_ssd_level\": %llu}, "
             "\"read\": {\"ops\": %llu, \"ops_per_sec\": %.0f, "
             "\"p99_us\": %.2f, \"ssd_reads_per_get\": %.3f}, "
             "\"mixed\": {\"ops\": %llu, \"ops_per_sec\": %.0f, "
             "\"p99_us\": %.2f}}%s\n",
             policy, static_cast<unsigned long long>(fill_ops), fill_ops_s,
             fill_latency.Percentile(99) / 1000.0, write_amp, space_amp,
             static_cast<unsigned long long>(user_bytes),
             static_cast<unsigned long long>(comp_bytes),
             static_cast<unsigned long long>(ssd_runs),
             static_cast<unsigned long long>(max_level),
             static_cast<unsigned long long>(read_ops), read_ops_s,
             read_latency.Percentile(99) / 1000.0, ssd_reads_per_get,
             static_cast<unsigned long long>(mixed_ops), mixed_ops_s,
             mixed_latency.Percentile(99) / 1000.0, pi + 1 < 3 ? "," : "");
    json += point;
  }
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]\n";

  table.Print("policy_sweep (memtable=" +
              std::to_string(opts->memtable_bytes) + "B, l0_budget=" +
              std::to_string(opts->l0_budget_large) + "B, size_ratio=" +
              std::to_string(opts->compaction_size_ratio) + ", zipf=" +
              TablePrinter::Fmt(ctx->zipf, 2) + ")");
  FILE* out = fopen("BENCH_compaction_policy.json", "w");
  if (out != nullptr) {
    fputs(json.c_str(), out);
    fclose(out);
    printf("wrote BENCH_compaction_policy.json\n");
  }

  // Restore the configuration the rest of the benchmark list expects.
  *ctx->env->mutable_options() = saved;
  KvEngine* engine = nullptr;
  Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
  if (!s.ok()) {
    fprintf(stderr, "policy_sweep restore: %s\n", s.ToString().c_str());
    exit(1);
  }
  ctx->engine = engine;
}

// Zipfian point-read sweep over SSD-resident keys, one fresh engine per
// point: the no-filter/no-cache baseline, blooms + block cache, and blooms
// + cache + memory arbiter. Loads EVEN key indices only and reads zipfian
// over twice the index space, so half the probes are absent keys
// INTERLEAVED with the present ones (they pass the tables' min/max range
// check and only a bloom can reject them without an SSD read). Everything
// is forced down to level-1 first, so every data-block read is an SSD read.
// The arbiter point then flips to a write-heavy phase and reports how the
// budget moved. Emits BENCH_read_path.json.
void RunReadSkew(Context* ctx) {
  const BenchEnvOptions saved = *ctx->env->mutable_options();
  BenchEnvOptions* opts = ctx->env->mutable_options();

  struct ModeCfg {
    const char* name;
    int bloom_bits;
    size_t cache_bytes;
    uint64_t budget_bytes;
  };
  const ModeCfg modes[] = {
      {"no_filter", 0, 0, 0},
      {"filter_cache", 10, saved.block_cache_bytes, 0},
      {"filter_cache_arbiter", 10, saved.block_cache_bytes, 8ull << 20},
  };
  const size_t num_modes = sizeof(modes) / sizeof(modes[0]);

  // Key space: present keys are the EVEN indices in [0, 2*num); reads draw
  // zipfian from the full range.
  KeySpec space;
  space.num_keys = ctx->num * 2;
  space.zipf_theta = ctx->zipf;

  TablePrinter table({"mode", "ops/sec", "ssd_reads/get", "bloom_neg/get",
                      "cache_hit%", "rebalances"});
  std::string json = "[\n";

  for (size_t mi = 0; mi < num_modes && !InterruptRequested(); ++mi) {
    const ModeCfg& mode = modes[mi];
    opts->bloom_bits_per_key = mode.bloom_bits;
    opts->block_cache_bytes = mode.cache_bytes;
    opts->memory_budget_bytes = mode.budget_bytes;
    opts->arbiter_interval_ms = 25;  // visible shifts within bench runtime
    opts->partition_boundaries = KeyGenerator(space).PartitionBoundaries(8);
    KvEngine* engine = nullptr;
    Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
    if (!s.ok()) {
      fprintf(stderr, "read_skew reopen: %s\n", s.ToString().c_str());
      exit(1);
    }
    ctx->engine = engine;
    DB* db = ctx->env->pmblade_db();
    if (db == nullptr) {
      fprintf(stderr,
              "read_skew needs a pmblade engine "
              "(--engine=pmblade|pmblade-pm|pmblade-ssd)\n");
      exit(1);
    }

    // Load the even indices, then force everything to SSD level-1.
    KeyGenerator keys(space);
    ValueGenerator values(ctx->value_size);
    for (uint64_t i = 0; i < ctx->num && !InterruptRequested(); ++i) {
      RUN_OP(db->Put(WriteOptions(), keys.KeyAt(2 * i), values.For(2 * i)));
    }
    RUN_OP(db->FlushMemTable());
    RUN_OP(db->CompactToLevel1(false));

    // Cold zipfian read phase over the doubled key space.
    KeyGenerator read_keys(space);
    const uint64_t gets = ctx->num;
    const uint64_t ssd_reads_before = ctx->env->ssd_model()->reads();
    uint64_t negatives_before = 0;
    db->GetProperty("pmblade.bloom-negatives", &negatives_before);
    Histogram latency;
    const uint64_t start = ctx->clock->NowNanos();
    for (uint64_t i = 0; i < gets && !InterruptRequested(); ++i) {
      uint64_t k = read_keys.NextIndex();
      uint64_t t0 = ctx->clock->NowNanos();
      std::string value;
      RUN_OP(db->Get(ReadOptions(), read_keys.KeyAt(k), &value));
      latency.Add(ctx->clock->NowNanos() - t0);
    }
    const uint64_t nanos = ctx->clock->NowNanos() - start;

    const double ops_per_sec = nanos > 0 ? gets * 1e9 / nanos : 0;
    const double ssd_reads_per_get =
        gets > 0 ? static_cast<double>(ctx->env->ssd_model()->reads() -
                                       ssd_reads_before) /
                       gets
                 : 0;
    uint64_t negatives = 0;
    db->GetProperty("pmblade.bloom-negatives", &negatives);
    const double negatives_per_get =
        gets > 0
            ? static_cast<double>(negatives - negatives_before) / gets
            : 0;
    double cache_hit_ratio = 0;
    if (mode.cache_bytes > 0) {
      obs::MetricsSnapshot snap =
          db->metrics_registry()->Snapshot(ctx->clock->NowNanos());
      const obs::MetricSample* h = snap.Find("pmblade.blockcache.hits");
      const obs::MetricSample* m = snap.Find("pmblade.blockcache.misses");
      const double hits = h != nullptr ? h->value : 0;
      const double misses = m != nullptr ? m->value : 0;
      if (hits + misses > 0) cache_hit_ratio = hits / (hits + misses);
    }

    // Arbiter point only: flip to a write-heavy phase and record the
    // budget shift (read phase should have pulled budget toward the cache;
    // write backpressure pulls it back toward the memtable).
    uint64_t rebalances = 0;
    uint64_t read_mem = 0, read_cache = 0, write_mem = 0, write_cache = 0;
    if (mode.budget_bytes > 0) {
      db->GetProperty("pmblade.memtable-limit", &read_mem);
      db->GetProperty("pmblade.blockcache-capacity", &read_cache);
      Random rng(301);
      for (uint64_t i = 0; i < ctx->num && !InterruptRequested(); ++i) {
        uint64_t k = rng.Uniform(ctx->num);
        RUN_OP(db->Put(WriteOptions(), keys.KeyAt(2 * k), values.For(k)));
      }
      db->GetProperty("pmblade.memtable-limit", &write_mem);
      db->GetProperty("pmblade.blockcache-capacity", &write_cache);
      db->GetProperty("pmblade.mem-rebalances", &rebalances);
    }

    Report(mode.name, gets, nanos, latency);
    table.AddRow({mode.name, TablePrinter::Fmt(ops_per_sec, 0),
                  TablePrinter::Fmt(ssd_reads_per_get, 3),
                  TablePrinter::Fmt(negatives_per_get, 3),
                  TablePrinter::Fmt(cache_hit_ratio * 100, 1),
                  std::to_string(rebalances)});

    char point[512];
    snprintf(point, sizeof(point),
             "  {\"mode\": \"%s\", \"gets\": %llu, \"ops_per_sec\": %.0f, "
             "\"p99_us\": %.2f, \"ssd_reads_per_get\": %.4f, "
             "\"bloom_negatives_per_get\": %.4f, \"cache_hit_ratio\": %.4f",
             mode.name, static_cast<unsigned long long>(gets), ops_per_sec,
             latency.Percentile(99) / 1000.0, ssd_reads_per_get,
             negatives_per_get, cache_hit_ratio);
    json += point;
    if (mode.budget_bytes > 0) {
      snprintf(point, sizeof(point),
               ", \"arbiter\": {\"rebalances\": %llu, \"read_phase\": "
               "{\"memtable_target\": %llu, \"block_cache_target\": %llu}, "
               "\"write_phase\": {\"memtable_target\": %llu, "
               "\"block_cache_target\": %llu}}",
               static_cast<unsigned long long>(rebalances),
               static_cast<unsigned long long>(read_mem),
               static_cast<unsigned long long>(read_cache),
               static_cast<unsigned long long>(write_mem),
               static_cast<unsigned long long>(write_cache));
      json += point;
    }
    json += mi + 1 < num_modes ? "},\n" : "}\n";
  }
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]\n";

  table.Print("read_skew (zipf=" + TablePrinter::Fmt(ctx->zipf, 2) +
              ", 50% absent keys)");
  FILE* out = fopen("BENCH_read_path.json", "w");
  if (out != nullptr) {
    fputs(json.c_str(), out);
    fclose(out);
    printf("wrote BENCH_read_path.json\n");
  }

  // Restore the configuration the rest of the benchmark list expects.
  *ctx->env->mutable_options() = saved;
  KvEngine* engine = nullptr;
  Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
  if (!s.ok()) {
    fprintf(stderr, "read_skew restore: %s\n", s.ToString().c_str());
    exit(1);
  }
  ctx->engine = engine;
}

// Shard-count sweep: 1, 2, 4, ... up to max(--shards, 8) shards, one fresh
// engine per point, all driven by the SAME fixed pool of client threads
// running a 50/50 zipfian read/write mix. Holding the thread count constant
// isolates the engine side: at one shard every writer funnels through a
// single group-commit leader, memtable and flush thread; at N shards the
// identical offered load spreads over N independent write paths. Reports
// each point's speedup over the 1-shard baseline and emits
// BENCH_shard_scaling.json.
void RunShardScaling(Context* ctx) {
  const BenchEnvOptions saved = *ctx->env->mutable_options();
  BenchEnvOptions* opts = ctx->env->mutable_options();

  const uint32_t max_shards = ctx->shards > 1 ? ctx->shards : 8;
  std::vector<uint32_t> points;
  for (uint32_t n = 1; n < max_shards; n *= 2) points.push_back(n);
  points.push_back(max_shards);
  const int threads =
      ctx->writers > static_cast<int>(max_shards) ? ctx->writers
                                                  : static_cast<int>(max_shards);

  TablePrinter table(
      {"shards", "threads", "ops/sec", "p99(us)", "stalls", "speedup"});
  std::string json = "[\n";
  double base_ops_per_sec = 0;

  // Best-of-3 per point, fresh engine per rep: the same convention as the
  // Fig. 9 CPU-utilization cells — on a shared/oversubscribed host a single
  // rep confounds engine behaviour with neighbour noise, and the best rep is
  // the one least perturbed by it.
  const int kReps = 3;

  for (size_t pi = 0; pi < points.size(); ++pi) {
    if (InterruptRequested()) break;  // partial JSON still written below
    const uint32_t shards = points[pi];
    opts->num_shards = shards;

    Histogram best_latency;
    double best_ops_per_sec = -1;
    uint64_t best_nanos = 0, best_stalls = 0, best_slowdowns = 0;
    uint64_t best_ops = 0;

    for (int rep = 0; rep < kReps && !InterruptRequested(); ++rep) {
    KvEngine* engine = nullptr;
    Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
    if (!s.ok()) {
      fprintf(stderr, "shard_scaling reopen: %s\n", s.ToString().c_str());
      exit(1);
    }
    ctx->engine = engine;
    DB* db = ctx->env->pmblade_db();
    if (db == nullptr) {
      fprintf(stderr,
              "shard_scaling needs a pmblade engine "
              "(--engine=pmblade|pmblade-pm|pmblade-ssd)\n");
      exit(1);
    }

    KeySpec spec;
    spec.num_keys = ctx->num;
    spec.zipf_theta = ctx->zipf;
    const uint64_t per_thread = ctx->num / threads;

    // Untimed warmup (20% of the measured ops): populate the memtables and
    // prime the flush/compaction pipeline before the clock starts. The
    // 1-shard point runs first and otherwise pays the whole cold-start tax
    // (empty allocator, cold caches), skewing every speedup reported
    // against it.
    const uint64_t warm_ops = per_thread / 5;
    std::vector<std::thread> warmers;
    for (int t = 0; t < threads; ++t) {
      warmers.emplace_back([&, t] {
        KeySpec tspec = spec;
        tspec.seed = spec.seed + 1000 + t;  // distinct from the timed streams
        KeyGenerator keys(tspec);
        ValueGenerator values(ctx->value_size, 7 + t);
        Random rng(601 + t);
        for (uint64_t i = 0; i < warm_ops && !InterruptRequested(); ++i) {
          uint64_t k = keys.NextIndex();
          if (rng.OneIn(2)) {
            std::string value;
            RUN_OP(db->Get(ReadOptions(), keys.KeyAt(k), &value));
          } else {
            RUN_OP(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
          }
        }
      });
    }
    for (auto& w : warmers) w.join();

    Histogram latency;
    std::mutex merge_mu;
    const uint64_t start = ctx->clock->NowNanos();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        KeySpec tspec = spec;
        tspec.seed = spec.seed + t;  // decorrelate the threads' key streams
        KeyGenerator keys(tspec);
        ValueGenerator values(ctx->value_size, 7 + t);
        Random rng(301 + t);
        Histogram local;
        for (uint64_t i = 0; i < per_thread && !InterruptRequested(); ++i) {
          uint64_t k = keys.NextIndex();
          uint64_t t0 = ctx->clock->NowNanos();
          if (rng.OneIn(2)) {
            std::string value;
            RUN_OP(db->Get(ReadOptions(), keys.KeyAt(k), &value));
          } else {
            RUN_OP(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
          }
          local.Add(ctx->clock->NowNanos() - t0);
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        latency.Merge(local);
      });
    }
    for (auto& w : workers) w.join();
    const uint64_t nanos = ctx->clock->NowNanos() - start;

    const uint64_t rep_ops = per_thread * threads;
    const double rep_ops_per_sec = nanos > 0 ? rep_ops * 1e9 / nanos : 0;
    if (rep_ops_per_sec > best_ops_per_sec) {
      best_ops_per_sec = rep_ops_per_sec;
      best_latency = latency;
      best_nanos = nanos;
      best_ops = rep_ops;
      best_stalls = 0;
      best_slowdowns = 0;
      db->GetProperty("pmblade.write-stalls", &best_stalls);
      db->GetProperty("pmblade.write-slowdowns", &best_slowdowns);
    }
    }  // reps

    const uint64_t ops = best_ops;
    const uint64_t nanos = best_nanos;
    const Histogram& latency = best_latency;
    const double ops_per_sec = best_ops_per_sec > 0 ? best_ops_per_sec : 0;
    if (pi == 0) base_ops_per_sec = ops_per_sec;
    const double speedup =
        base_ops_per_sec > 0 ? ops_per_sec / base_ops_per_sec : 0;
    const double p99_us = latency.Percentile(99) / 1000.0;
    const uint64_t stalls = best_stalls, slowdowns = best_slowdowns;

    char row[96];
    snprintf(row, sizeof(row), "%u shards", shards);
    Report(row, ops, nanos, latency);
    table.AddRow({std::to_string(shards), std::to_string(threads),
                  TablePrinter::Fmt(ops_per_sec, 0),
                  TablePrinter::Fmt(p99_us, 1), std::to_string(stalls),
                  TablePrinter::Fmt(speedup, 2) + "x"});

    char point[320];
    snprintf(point, sizeof(point),
             "  {\"shards\": %u, \"threads\": %d, \"ops\": %llu, "
             "\"ops_per_sec\": %.0f, \"p99_us\": %.2f, \"write_stalls\": "
             "%llu, \"write_slowdowns\": %llu, \"speedup\": %.3f}%s\n",
             shards, threads, static_cast<unsigned long long>(ops),
             ops_per_sec, p99_us, static_cast<unsigned long long>(stalls),
             static_cast<unsigned long long>(slowdowns), speedup,
             pi + 1 < points.size() ? "," : "");
    json += point;
  }
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);
  }
  json += "]";

  table.Print("shard_scaling (mixed 50/50, zipf=" +
              TablePrinter::Fmt(ctx->zipf, 2) + ")");

  // MSET fan-out at the acceptance configuration (4 shards, or the sweep
  // maximum when smaller): per-batch latency of an all-shard durable
  // (sync=true) MSET through two-phase commit.
  const uint32_t fan_shards = max_shards < 4 ? max_shards : 4;
  const int fan_threads = 4;
  const uint64_t fan_per_thread = 500;

  auto key_for_shard = [fan_shards](uint32_t shard, uint64_t tag) {
    for (uint64_t probe = 0;; ++probe) {
      std::string key =
          "m" + std::to_string(tag) + "p" + std::to_string(probe);
      if (ShardedDB::ShardOfKey(key, fan_shards) == shard) return key;
    }
  };

  double fan_p50_us = -1, fan_p95_us = 0, msets_per_sec = 0;
  double fsyncs_per_mset = 0;
  opts->num_shards = fan_shards;
  // Best-of-3 by p50, fresh engine per rep — the same neighbour-noise
  // convention as the shard sweep above (this host's single runs swing
  // ~2x under load).
  for (int rep = 0; rep < kReps && !InterruptRequested(); ++rep) {
    KvEngine* engine = nullptr;
    Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
    if (!s.ok()) {
      fprintf(stderr, "shard_scaling mset reopen: %s\n",
              s.ToString().c_str());
      exit(1);
    }
    ctx->engine = engine;
    DB* db = ctx->env->pmblade_db();

    Histogram latency;
    std::mutex merge_mu;
    uint64_t syncs_before = 0;
    db->GetProperty("pmblade.wal-syncs", &syncs_before);
    const uint64_t start = ctx->clock->NowNanos();
    std::vector<std::thread> workers;
    for (int t = 0; t < fan_threads; ++t) {
      workers.emplace_back([&, t] {
        ValueGenerator values(ctx->value_size, 7 + t);
        Histogram local;
        WriteOptions wo;
        wo.sync = true;
        for (uint64_t i = 0; i < fan_per_thread && !InterruptRequested();
             ++i) {
          const uint64_t tag = (static_cast<uint64_t>(t) << 32) | i;
          // Build the batch outside the timed section.
          WriteBatch batch;
          for (uint32_t shard = 0; shard < fan_shards; ++shard) {
            batch.Put(key_for_shard(shard, tag), values.For(tag ^ shard));
          }
          uint64_t t0 = ctx->clock->NowNanos();
          RUN_OP(db->Write(wo, &batch));
          local.Add(ctx->clock->NowNanos() - t0);
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        latency.Merge(local);
      });
    }
    for (auto& w : workers) w.join();
    const uint64_t nanos = ctx->clock->NowNanos() - start;

    const double p50_us = latency.Percentile(50) / 1000.0;
    if (fan_p50_us < 0 || p50_us < fan_p50_us) {
      fan_p50_us = p50_us;
      fan_p95_us = latency.Percentile(95) / 1000.0;
      const uint64_t msets = fan_per_thread * fan_threads;
      msets_per_sec = nanos > 0 ? msets * 1e9 / nanos : 0;
      uint64_t syncs_after = 0;
      db->GetProperty("pmblade.wal-syncs", &syncs_after);
      fsyncs_per_mset =
          msets > 0 ? double(syncs_after - syncs_before) / msets : 0;
    }
  }
  TablePrinter fan_table(
      {"mode", "p50(us)", "p95(us)", "msets/sec", "fsyncs/mset"});
  fan_table.AddRow({"2pc-atomic", TablePrinter::Fmt(fan_p50_us, 1),
                    TablePrinter::Fmt(fan_p95_us, 1),
                    TablePrinter::Fmt(msets_per_sec, 0),
                    TablePrinter::Fmt(fsyncs_per_mset, 2)});
  fan_table.Print("mset_fanout (" + std::to_string(fan_shards) +
                  "-shard durable MSET, " + std::to_string(fan_threads) +
                  " threads)");

  FILE* out = fopen("BENCH_shard_scaling.json", "w");
  if (out != nullptr) {
    fprintf(out,
            "{\n\"scaling\": %s,\n\"mset_fanout\": [\n  {\"mode\": "
            "\"2pc-atomic\", \"shards\": %u, \"threads\": %d, \"sync\": "
            "true, \"p50_us\": %.2f, \"p95_us\": %.2f, \"msets_per_sec\": "
            "%.0f, \"fsyncs_per_mset\": %.2f}\n]\n}\n",
            json.c_str(), fan_shards, fan_threads, fan_p50_us, fan_p95_us,
            msets_per_sec, fsyncs_per_mset);
    fclose(out);
    printf("wrote BENCH_shard_scaling.json\n");
  }

  // Restore the configuration the rest of the benchmark list expects.
  *ctx->env->mutable_options() = saved;
  KvEngine* engine = nullptr;
  Status s = ctx->env->OpenEngine(ctx->env->config(), &engine);
  if (!s.ok()) {
    fprintf(stderr, "shard_scaling restore: %s\n", s.ToString().c_str());
    exit(1);
  }
  ctx->engine = engine;
}

void RunBenchmark(Context* ctx, const std::string& name) {
  KeySpec spec;
  spec.num_keys = ctx->num;
  spec.zipf_theta = ctx->zipf;
  KeyGenerator keys(spec);
  ValueGenerator values(ctx->value_size);
  Random rng(301);
  Histogram latency;
  uint64_t ops = 0;
  const uint64_t start = ctx->clock->NowNanos();

  auto timed = [&](auto&& fn) {
    uint64_t t0 = ctx->clock->NowNanos();
    fn();
    latency.Add(ctx->clock->NowNanos() - t0);
    ++ops;
  };

  // Interrupted loops fall through to Report(), so a SIGINT/SIGTERM run
  // still prints the partial numbers it measured.
  auto keep_going = [&](uint64_t i, uint64_t n) {
    return i < n && !InterruptRequested();
  };

  if (name == "fillseq") {
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      timed([&] { RUN_OP(ctx->engine->Put(keys.KeyAt(i), values.For(i))); });
    }
  } else if (name == "fillrandom" || name == "overwrite") {
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      uint64_t k = rng.Uniform(ctx->num);
      timed([&] { RUN_OP(ctx->engine->Put(keys.KeyAt(k), values.For(k))); });
    }
  } else if (name == "readrandom") {
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      uint64_t k = keys.NextIndex();
      timed([&] {
        std::string value;
        RUN_OP(ctx->engine->Get(keys.KeyAt(k), &value));
      });
    }
  } else if (name == "readmissing") {
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      timed([&] {
        std::string value;
        RUN_OP(ctx->engine->Get("absent" + std::to_string(i), &value));
      });
    }
  } else if (name == "readseq") {
    std::unique_ptr<Iterator> it(ctx->engine->NewScanIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ++ops;  // per-entry accounting; one latency sample per 1k entries
      if (ops % 1000 == 0) latency.Add(1);
    }
    RUN_OP(it->status());
  } else if (name == "seekrandom") {
    for (uint64_t i = 0; keep_going(i, ctx->num / 10 + 1); ++i) {
      uint64_t k = keys.NextIndex();
      timed([&] {
        std::unique_ptr<Iterator> it(ctx->engine->NewScanIterator());
        it->Seek(keys.KeyAt(k));
        for (int j = 0; j < ctx->scan_length && it->Valid(); ++j) {
          it->Next();
        }
        RUN_OP(it->status());
      });
    }
  } else if (name == "deleterandom") {
    for (uint64_t i = 0; keep_going(i, ctx->num / 10 + 1); ++i) {
      uint64_t k = rng.Uniform(ctx->num);
      timed([&] { RUN_OP(ctx->engine->Delete(keys.KeyAt(k))); });
    }
  } else if (name == "indexfill") {
    TableSchema schema;
    schema.table_id = 1;
    schema.num_columns = 10;
    schema.indexed_columns = {1, 4, 7};
    TableCodec codec(schema);
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      timed([&] {
        std::vector<std::string> columns(schema.num_columns);
        for (uint32_t c = 0; c < schema.num_columns; ++c) {
          columns[c] = "c" + std::to_string(c) + "-" +
                       std::to_string(rng.Uniform(100));
        }
        RUN_OP(codec.InsertRow(ctx->engine, i, columns));
      });
    }
  } else if (name == "indexquery") {
    TableSchema schema;
    schema.table_id = 1;
    schema.num_columns = 10;
    schema.indexed_columns = {1, 4, 7};
    TableCodec codec(schema);
    for (uint64_t i = 0; keep_going(i, ctx->num / 10 + 1); ++i) {
      timed([&] {
        uint32_t column = schema.indexed_columns[rng.Uniform(3)];
        std::string value = "c" + std::to_string(column) + "-" +
                            std::to_string(rng.Uniform(100));
        std::vector<uint64_t> pks;
        RUN_OP(codec.IndexQuery(ctx->engine, column, value,
                                ctx->scan_length, &pks));
      });
    }
  } else if (name == "mixed") {
    for (uint64_t i = 0; keep_going(i, ctx->num); ++i) {
      uint64_t k = keys.NextIndex();
      if (rng.OneIn(2)) {
        timed([&] {
          std::string value;
          RUN_OP(ctx->engine->Get(keys.KeyAt(k), &value));
        });
      } else {
        timed(
            [&] { RUN_OP(ctx->engine->Put(keys.KeyAt(k), values.For(k))); });
      }
    }
  } else if (name == "write_scaling") {
    RunWriteScaling(ctx);
    return;
  } else if (name == "compaction_parallel") {
    RunCompactionParallel(ctx);
    return;
  } else if (name == "read_skew") {
    RunReadSkew(ctx);
    return;
  } else if (name == "shard_scaling") {
    RunShardScaling(ctx);
    return;
  } else if (name == "policy_sweep") {
    RunPolicySweep(ctx);
    return;
  } else if (name == "flush") {
    timed([&] { RUN_OP(ctx->engine->Flush()); });
  } else if (name == "compact") {
    timed([&] {
      if (ctx->env->pmblade_db() != nullptr) {
        RUN_OP(ctx->env->pmblade_db()->CompactToLevel1(true));
      } else if (ctx->env->leveled_db() != nullptr) {
        RUN_OP(ctx->env->leveled_db()->CompactAll());
      } else if (ctx->env->matrixkv_db() != nullptr) {
        RUN_OP(ctx->env->matrixkv_db()->CompactAll());
      }
    });
  } else if (name == "stats") {
    const DbStatistics* stats = ctx->env->statistics();
    printf("%s\n", stats != nullptr ? stats->ToString().c_str() : "(none)");
    printf("ssd written: %s, pm written: %s\n",
           TablePrinter::FmtBytes(ctx->env->SsdBytesWritten()).c_str(),
           TablePrinter::FmtBytes(ctx->env->PmBytesWritten()).c_str());
    return;
  } else {
    fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
    exit(1);
  }

  Report(name.c_str(), ops, ctx->clock->NowNanos() - start, latency);
}

}  // namespace

int main(int argc, char** argv) {
  InstallInterruptHandler();
  Flags flags(argc, argv);

  // Strict flag parsing: a typo like --polcy= silently benchmarking the
  // default policy is worse than an error.
  std::vector<std::string> unknown = flags.Unknown(
      {"engine", "benchmarks", "num", "value_size", "zipf", "scan_length",
       "writers", "compaction_workers", "shards", "sync_writes", "db",
       "inject_latency", "memtable_bytes", "partitions", "policy",
       "size_ratio", "ssd_levels", "stats_dump"});
  if (!unknown.empty()) {
    for (const auto& f : unknown) {
      fprintf(stderr, "unknown flag --%s\n", f.c_str());
    }
    return 1;
  }

  std::string engine_name = flags.Str("engine", "pmblade");
  EngineConfig config;
  if (engine_name == "pmblade") config = EngineConfig::kPmBlade;
  else if (engine_name == "pmblade-pm") config = EngineConfig::kPmBladePm;
  else if (engine_name == "pmblade-ssd") config = EngineConfig::kPmBladeSsd;
  else if (engine_name == "rocks") config = EngineConfig::kRocksStyle;
  else if (engine_name == "matrixkv") config = EngineConfig::kMatrixKvSmall;
  else {
    fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 1;
  }

  Context ctx;
  ctx.num = flags.Int("num", 10000);
  ctx.value_size = flags.Int("value_size", 256);
  ctx.zipf = flags.Double("zipf", 0.99);
  ctx.scan_length = static_cast<int>(flags.Int("scan_length", 50));
  ctx.writers = static_cast<int>(flags.Int("writers", 1));
  if (ctx.writers < 1) ctx.writers = 1;
  ctx.compaction_workers = static_cast<int>(flags.Int("compaction_workers", 4));
  if (ctx.compaction_workers < 1) ctx.compaction_workers = 1;
  ctx.shards = static_cast<uint32_t>(flags.Int("shards", 1));
  if (ctx.shards < 1) ctx.shards = 1;
  ctx.sync_writes = flags.Bool("sync_writes", false);

  BenchEnvOptions eopts;
  eopts.root = flags.Str("db", "/tmp/pmblade_benchmark_kv");
  eopts.inject_ssd_latency = flags.Bool("inject_latency", true);
  eopts.inject_pm_latency = flags.Bool("inject_latency", true);
  eopts.memtable_bytes = flags.Int("memtable_bytes", 1 << 20);
  eopts.num_shards = ctx.shards;
  eopts.compaction_policy = flags.Str("policy", "leveled");
  if (!IsValidCompactionPolicy(eopts.compaction_policy)) {
    fprintf(stderr,
            "unknown --policy '%s' (want leveled|tiered|lazy_leveling)\n",
            eopts.compaction_policy.c_str());
    return 1;
  }
  eopts.compaction_size_ratio =
      static_cast<uint32_t>(flags.Int("size_ratio", 4));
  eopts.max_ssd_levels = static_cast<uint32_t>(flags.Int("ssd_levels", 3));
  KeySpec bspec;
  bspec.num_keys = ctx.num;
  eopts.partition_boundaries = KeyGenerator(bspec).PartitionBoundaries(
      static_cast<int>(flags.Int("partitions", 8)));

  BenchEnv env(eopts);
  Status s = env.OpenEngine(config, &ctx.engine);
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  ctx.env = &env;

  printf("benchmark_kv: engine=%s num=%llu value_size=%zu zipf=%.2f "
         "shards=%u\n",
         EngineConfigName(config), (unsigned long long)ctx.num,
         ctx.value_size, ctx.zipf, ctx.shards);

  std::string benchmarks =
      flags.Str("benchmarks", "fillseq,readrandom,seekrandom,mixed,stats");
  std::stringstream ss(benchmarks);
  std::string name;
  while (std::getline(ss, name, ',') && !InterruptRequested()) {
    if (!name.empty()) RunBenchmark(&ctx, name);
  }
  if (InterruptRequested()) {
    printf("benchmark_kv: interrupted by signal %d, partial results above\n",
           InterruptSignal());
  }

  // --stats_dump: after all benchmarks, dump the observability snapshot of
  // the pmblade engine ("json", "prometheus", or "both").
  std::string stats_dump = flags.Str("stats_dump", "");
  if (!stats_dump.empty()) {
    DB* db = env.pmblade_db();
    if (db == nullptr) {
      fprintf(stderr, "--stats_dump: engine '%s' has no stats exporter\n",
              engine_name.c_str());
      return 1;
    }
    std::string dump;
    if (stats_dump == "json" || stats_dump == "both") {
      if (db->GetProperty("pmblade.stats.json", &dump)) {
        printf("%s\n", dump.c_str());
      }
    }
    if (stats_dump == "prometheus" || stats_dump == "both") {
      if (db->GetProperty("pmblade.stats.prometheus", &dump)) {
        printf("%s", dump.c_str());
      }
    }
    if (stats_dump != "json" && stats_dump != "prometheus" &&
        stats_dump != "both") {
      fprintf(stderr, "--stats_dump expects json|prometheus|both\n");
      return 1;
    }
  }
  return InterruptRequested() ? 128 + InterruptSignal() : 0;
}
