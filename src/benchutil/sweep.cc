#include "benchutil/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "benchutil/interrupt.h"
#include "benchutil/workload.h"
#include "util/histogram.h"

namespace pmblade {
namespace bench {

void CheckOp(const Status& s) {
  if (!s.ok() && !s.IsNotFound()) {
    fprintf(stderr, "op failed: %s\n", s.ToString().c_str());
    exit(1);
  }
}

Phase TimeOps(Clock* clock, int threads, uint64_t per_thread,
              const std::function<void(int, uint64_t)>& op) {
  Phase phase;
  std::mutex mu;
  auto work = [&](int t) {
    Histogram local;
    uint64_t i = 0;
    for (; i < per_thread && !InterruptRequested(); ++i) {
      const uint64_t t0 = clock->NowNanos();
      op(t, i);
      local.Add(clock->NowNanos() - t0);
    }
    std::lock_guard<std::mutex> lock(mu);
    phase.latency.Merge(local);
    phase.ops += i;
  };
  const uint64_t start = clock->NowNanos();
  if (threads == 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) workers.emplace_back(work, t);
    for (auto& w : workers) w.join();
  }
  phase.nanos = clock->NowNanos() - start;
  return phase;
}

Status RunSweep(const Sweep& sweep, BenchEnv* env) {
  if (!sweep.engines.empty() &&
      std::find(sweep.engines.begin(), sweep.engines.end(), env->config()) ==
          sweep.engines.end()) {
    return Status::InvalidArgument(sweep.name + " does not run on the " +
                                   EngineConfigName(env->config()) +
                                   " engine");
  }
  BenchEnvOptions* opts = env->mutable_options();
  const BenchEnvOptions saved = *opts;
  if (sweep.setup) sweep.setup(opts);
  const BenchEnvOptions base = *opts;

  TablePrinter table(sweep.columns);
  std::vector<JsonObject> rows;
  Status s;
  for (const SweepPoint& point : sweep.points) {
    if (InterruptRequested()) break;  // partial JSON still written below
    *opts = base;
    if (point.apply) point.apply(opts);
    SweepRun best;
    bool measured = false;
    for (int rep = 0; rep < sweep.reps && !InterruptRequested(); ++rep) {
      KvEngine* engine = nullptr;
      s = env->OpenEngine(env->config(), &engine);
      if (!s.ok()) break;
      SweepRun run = sweep.run(point, env);
      // An interrupt cut this run short: a partial run is cheaper, not
      // better, so it must not become the point's best.
      if (InterruptRequested()) break;
      if (!measured || run.cost < best.cost) best = std::move(run);
      measured = true;
    }
    if (!s.ok() || !measured) break;
    table.AddRow(best.row);
    if (point.extends_row && !rows.empty()) {
      rows.back().Append(best.json);
    } else {
      rows.push_back(std::move(best.json));
    }
  }

  if (s.ok()) {
    table.Print(sweep.title ? sweep.title(base) : sweep.name);
    if (!WriteTextFile(sweep.output, JsonRows(rows))) {
      fprintf(stderr, "%s: cannot write %s\n", sweep.name.c_str(),
              sweep.output.c_str());
    }
  }
  // Restore the configuration the rest of the benchmark list expects.
  *opts = saved;
  KvEngine* engine = nullptr;
  Status reopen = env->OpenEngine(env->config(), &engine);
  return s.ok() ? reopen : s;
}

namespace {

// 1, 2, 4, ... below `max`, then `max` itself.
std::vector<int> Doublings(int max) {
  std::vector<int> points;
  for (int n = 1; n < max; n *= 2) points.push_back(n);
  if (max >= 1) points.push_back(max);
  return points;
}

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / den : 0;
}

const std::vector<EngineConfig> kPmBladeConfigs = {
    EngineConfig::kPmBlade, EngineConfig::kPmBladePm,
    EngineConfig::kPmBladeSsd, EngineConfig::kPmbP,
    EngineConfig::kPmbPI, EngineConfig::kPmbPIC};

// Concurrent-writer sweep: 1, 2, 4, ... up to --writers threads of random
// puts (sync per --sync_writes), each point once with the WAL on the SSD
// and once in PM (Options::wal_in_pm), on a fresh engine per run. The
// group-commit counters report how well the WAL syncs amortized.
Sweep WriteScaling(const SweepParams& p) {
  Sweep sweep;
  sweep.name = "write_scaling";
  sweep.output = "BENCH_write_scaling.json";
  // "syncs" counts the sync barriers the groups asked for: fsyncs with the
  // SSD WAL, free with the PM WAL, whose appends are durable on return.
  sweep.columns = {"writers", "wal",          "ops/sec", "p99(us)",
                   "groups",  "writes/group", "syncs",   "ssd writes/put"};
  for (int threads : Doublings(p.writers)) {
    for (const bool wal_in_pm : {false, true}) {
      sweep.points.push_back(
          {std::to_string(threads) + " writers, " +
               (wal_in_pm ? "pm" : "ssd") + " wal",
           [wal_in_pm](BenchEnvOptions* o) { o->wal_in_pm = wal_in_pm; },
           threads, /*extends_row=*/wal_in_pm});
    }
  }
  sweep.title = [p](const BenchEnvOptions&) {
    return "write_scaling (sync=" +
           std::string(p.sync_writes ? "true" : "false") + ")";
  };
  sweep.run = [p](const SweepPoint& point, BenchEnv* env) {
    const int threads = point.value;
    const char* wal = env->mutable_options()->wal_in_pm ? "pm" : "ssd";
    DB* db = env->pmblade_db();
    KvEngine* engine = env->engine();
    const uint64_t ssd_writes_before = env->ssd_model()->writes();

    KeyGenerator keys(KeySpec{.num_keys = p.num});
    ValueGenerator values(p.value_size);
    std::vector<Random> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(301 + t);
    WriteOptions wopts;
    wopts.sync = p.sync_writes;
    const Phase fill =
        TimeOps(p.clock, threads, p.num / threads, [&](int t, uint64_t) {
          const uint64_t k = rngs[t].Uniform(p.num);
          CheckOp(db != nullptr ? db->Put(wopts, keys.KeyAt(k), values.For(k))
                                : engine->Put(keys.KeyAt(k), values.For(k)));
        });

    const uint64_t syncs = env->Metric("pmblade.wal.syncs");
    const uint64_t groups = env->Metric("pmblade.write.groups");
    const double writes_per_group =
        Ratio(env->Metric("pmblade.write.group_writes"), groups);
    // Flushes and compactions write the SSD too, so this is an upper
    // bound on the WAL's share: 1 per put (ungrouped) with the SSD WAL.
    const double ssd_writes_per_put =
        Ratio(env->ssd_model()->writes() - ssd_writes_before, fill.ops);

    fill.Report(point.label);
    SweepRun run;
    run.row = {std::to_string(threads), wal,
               TablePrinter::Fmt(fill.OpsPerSec(), 0),
               TablePrinter::Fmt(fill.P99Micros(), 1), std::to_string(groups),
               TablePrinter::Fmt(writes_per_group, 2), std::to_string(syncs),
               TablePrinter::Fmt(ssd_writes_per_put, 3)};
    // The SSD-WAL run opens the writer count's row; the PM-WAL run
    // extends it.
    if (!point.extends_row) run.json.Int("writers", threads);
    run.json.Obj(wal, fill.Json()
                          .Int("groups", groups)
                          .Num("writes_per_group", writes_per_group, 2)
                          .Int("syncs", syncs)
                          .Num("ssd_writes_per_put", ssd_writes_per_put, 4));
    return run;
  };
  return sweep;
}

// Parallel-compaction sweep: the same randomized write stream is pushed
// through fresh engines with compaction_workers = max_subcompactions = 1,
// 2, 4, ... — the compactor's merge pool is widened to match (see
// BenchEnv::OpenEngine), so the sweep scales the whole pipeline width:
// scheduler workers, key-range slices per victim, and merge threads. The
// memtable is shrunk so level-0 piles up multi-table runs, and the level-0
// budget is raised out of reach so no BACKGROUND major fires: every point
// reaches the timed section with the identical level-0 state, and the
// measured quantity is the wall time of two forced major compactions
// (sorted-run-only first, then sorted+level-1 after a second fill — the
// stitched level-1 from round one feeds round two's split rule). The fill
// phase (4 producer threads) is reported too, for the tail-latency impact
// of the widened pipeline on the write path.
Sweep CompactionParallel(const SweepParams& p) {
  Sweep sweep;
  sweep.name = "compaction_parallel";
  sweep.output = "BENCH_compaction_parallel.json";
  sweep.engines = kPmBladeConfigs;
  // Best-of-3 per point, fresh engine per rep: on a shared/oversubscribed
  // host a single rep confounds the pipeline with neighbour noise, and the
  // best rep is the one least perturbed by it.
  sweep.reps = 3;
  sweep.columns = {"workers", "major(ms)", "fill_ops/s", "fill_p99(us)",
                   "slices", "speedup"};
  // Speedups are against the 1-worker point's best rep, which is the
  // lowest major time any of its reps reaches.
  auto base_major_ms = std::make_shared<double>(0);
  sweep.setup = [base_major_ms](BenchEnvOptions* o) {
    *base_major_ms = 0;
    // Small fixed memtable so level-0 accumulates a multi-table sorted run
    // (internal compaction targets 4x the memtable), without flooding the
    // PM pool directory with hundreds of tiny tables.
    if (o->memtable_bytes > (128 << 10)) o->memtable_bytes = 128 << 10;
    // Out-of-reach budget: internal compactions still sort level-0, but
    // the cost model never schedules a background major, so the forced
    // majors below see the same input at every sweep point.
    o->l0_budget_large = 4ull << 30;
    // Single partition: the scenario key-range subcompactions target. A
    // multi-partition major already merges its victims as concurrent
    // subtasks (one per partition) at workers=1, so the per-victim split
    // is what this sweep isolates: a hot partition's major serializes
    // S1->S2->S3 at queue depth 1 without slices, and runs --workers
    // key-range slices with them.
    o->partition_boundaries.clear();
  };
  for (int workers : Doublings(p.compaction_workers)) {
    sweep.points.push_back({std::to_string(workers) + " workers",
                            [workers](BenchEnvOptions* o) {
                              o->compaction_workers = workers;
                              o->max_subcompactions = workers;
                            },
                            workers});
  }
  sweep.title = [](const BenchEnvOptions& o) {
    return "compaction_parallel (memtable=" +
           std::to_string(o.memtable_bytes) +
           "B, forced majors over identical level-0 state)";
  };
  sweep.run = [p, base_major_ms](const SweepPoint& point, BenchEnv* env) {
    DB* db = env->pmblade_db();
    KeyGenerator keys(KeySpec{.num_keys = p.num});
    ValueGenerator values(p.value_size);
    const int threads = std::max(p.writers, 4);

    // One fill (4 producers, identical streams at every point and rep)
    // followed by one forced full major; two rounds so the second major
    // also merges against the level-1 run the first one stitched.
    Phase fill;
    uint64_t major_nanos = 0, slices = 0;
    for (int round = 0; round < 2 && !InterruptRequested(); ++round) {
      const uint64_t fill_start = p.clock->NowNanos();
      std::vector<Random> rngs;
      for (int t = 0; t < threads; ++t) {
        rngs.emplace_back(301 + 100 * round + t);
      }
      const Phase round_fill =
          TimeOps(p.clock, threads, p.num / 2 / threads, [&](int t, uint64_t) {
            const uint64_t k = rngs[t].Uniform(p.num);
            CheckOp(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
          });
      // Prep (untimed): everything into sorted level-0 runs.
      CheckOp(db->FlushMemTable());
      CheckOp(db->CompactLevel0());
      fill.ops += round_fill.ops;
      fill.latency.Merge(round_fill.latency);
      fill.nanos += p.clock->NowNanos() - fill_start;

      // The measured quantity: one full major compaction, split into
      // key-range slices per max_subcompactions.
      const uint64_t slices_before =
          env->Metric("pmblade.compaction.subcompactions");
      const uint64_t major_start = p.clock->NowNanos();
      CheckOp(db->CompactToLevel1(false));
      major_nanos += p.clock->NowNanos() - major_start;
      slices += env->Metric("pmblade.compaction.subcompactions") -
                slices_before;
    }

    const double major_ms = major_nanos / 1e6;
    if (point.value == 1) {
      *base_major_ms =
          *base_major_ms > 0 ? std::min(*base_major_ms, major_ms) : major_ms;
    }
    const double speedup = major_ms > 0 ? *base_major_ms / major_ms : 0;

    fill.Report(point.label);
    printf("%-12s : major compaction %.1f ms (%llu slices)\n",
           point.label.c_str(), major_ms,
           static_cast<unsigned long long>(slices));
    SweepRun run;
    run.cost = static_cast<double>(major_nanos);
    run.row = {std::to_string(point.value), TablePrinter::Fmt(major_ms, 1),
               TablePrinter::Fmt(fill.OpsPerSec(), 0),
               TablePrinter::Fmt(fill.P99Micros(), 1), std::to_string(slices),
               TablePrinter::Fmt(speedup, 2) + "x"};
    run.json.Int("workers", point.value)
        .Num("major_wall_ms", major_ms, 2)
        .Int("subcompaction_slices", slices)
        .Append(fill.Json("fill_"))
        .Num("speedup", speedup, 3);
    return run;
  };
  return sweep;
}

// Design-space sweep over the pluggable SSD compaction policies: one fresh
// engine per policy, the same three phases against each — fill-heavy
// (sequential unique load + random overwrites), read-heavy zipfian gets,
// and a 50/50 zipfian mix. Write-amp is major-compaction bytes over user
// bytes, both read from engine metrics so the CI gate can recompute it
// from BENCH_compaction_policy.json alone; space-amp is resident level-0 +
// SSD bytes over the logical dataset; read cost is the surviving run count
// (sorted runs a point lookup may probe) plus measured SSD reads per Get.
Sweep PolicySweep(const SweepParams& p) {
  Sweep sweep;
  sweep.name = "policy_sweep";
  sweep.output = "BENCH_compaction_policy.json";
  // The non-leveled policies ride the cost-model compaction scheduler.
  sweep.engines = {EngineConfig::kPmBlade};
  sweep.columns = {"policy",   "fill_ops/s", "write_amp",  "space_amp",
                   "ssd_runs", "read_ops/s", "ssd_rd/get", "mixed_ops/s"};
  sweep.setup = [](BenchEnvOptions* o) {
    // Small memtable + tight level-0 budget so the cost model evicts to
    // the SSD many times over the run and the shapes actually diverge:
    // leveled rewrites its single run per eviction, tiered stacks runs
    // until a size-ratio block forms, lazy-leveling stacks above a single
    // last level.
    if (o->memtable_bytes > (128 << 10)) o->memtable_bytes = 128 << 10;
    o->l0_budget_large = 768 << 10;
  };
  const char* kPolicies[] = {"leveled", "tiered", "lazy_leveling"};
  for (int i = 0; i < 3; ++i) {
    const std::string policy = kPolicies[i];
    sweep.points.push_back(
        {policy,
         [policy](BenchEnvOptions* o) { o->compaction_policy = policy; },
         i});
  }
  sweep.title = [p](const BenchEnvOptions& o) {
    return "policy_sweep (memtable=" + std::to_string(o.memtable_bytes) +
           "B, l0_budget=" + std::to_string(o.l0_budget_large) +
           "B, size_ratio=" + std::to_string(o.compaction_size_ratio) +
           ", zipf=" + TablePrinter::Fmt(p.zipf, 2) + ")";
  };
  sweep.run = [p](const SweepPoint& point, BenchEnv* env) {
    DB* db = env->pmblade_db();
    KeyGenerator keys(KeySpec{.num_keys = p.num});
    ValueGenerator values(p.value_size);
    const uint64_t logical_bytes =
        p.num * (keys.KeyAt(0).size() + p.value_size);
    std::string value;

    // Phase 1 — fill-heavy: every key once (so the logical dataset is
    // exactly --num keys), then --num/2 random overwrites so compactions
    // have garbage to reclaim.
    Random rng(401 + static_cast<uint32_t>(point.value));
    const Phase fill =
        TimeOps(p.clock, 1, p.num + p.num / 2, [&](int, uint64_t i) {
          const uint64_t k = i < p.num ? i : rng.Uniform(p.num);
          CheckOp(db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
        });
    // Drain the background scheduler so byte counts and shapes are
    // settled before sampling metrics.
    CheckOp(db->FlushMemTable());
    for (int i = 0; i < 5000 && !InterruptRequested(); ++i) {
      if (env->Metric("pmblade.compaction.queue_depth") == 0 &&
          env->Metric("pmblade.compaction.active") == 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Post-fill shape + amplification, all from engine metrics.
    const uint64_t user_bytes = env->Metric("pmblade.write.user_bytes");
    const uint64_t comp_bytes = env->Metric("pmblade.compaction.major.bytes");
    const uint64_t ssd_runs = env->Metric("pmblade.lsm.ssd_runs");
    const double write_amp = Ratio(comp_bytes, user_bytes);
    const double space_amp =
        Ratio(env->Metric("pmblade.lsm.l0_bytes") +
                  env->Metric("pmblade.lsm.l1_bytes"),
              logical_bytes);

    // Phase 2 — read-heavy: --num zipfian point reads against the shape
    // the fill left behind (no compaction between phases beyond the
    // quiesce).
    KeyGenerator zkeys(KeySpec{.num_keys = p.num, .zipf_theta = p.zipf});
    const uint64_t ssd_reads_before = env->ssd_model()->reads();
    const Phase read = TimeOps(p.clock, 1, p.num, [&](int, uint64_t) {
      CheckOp(db->Get(keys.KeyAt(zkeys.NextIndex()), &value));
    });
    const double ssd_reads_per_get =
        Ratio(env->ssd_model()->reads() - ssd_reads_before, read.ops);

    // Phase 3 — 50/50 zipfian read/update mix.
    const Phase mixed = TimeOps(p.clock, 1, p.num / 2, [&](int, uint64_t) {
      const uint64_t k = zkeys.NextIndex();
      CheckOp(rng.OneIn(2)
                  ? db->Get(keys.KeyAt(k), &value)
                  : db->Put(WriteOptions(), keys.KeyAt(k), values.For(k)));
    });

    fill.Report(point.label + "/fill");
    read.Report(point.label + "/read");
    mixed.Report(point.label + "/mixed");
    SweepRun run;
    run.row = {point.label,
               TablePrinter::Fmt(fill.OpsPerSec(), 0),
               TablePrinter::Fmt(write_amp, 2),
               TablePrinter::Fmt(space_amp, 2),
               std::to_string(ssd_runs),
               TablePrinter::Fmt(read.OpsPerSec(), 0),
               TablePrinter::Fmt(ssd_reads_per_get, 2),
               TablePrinter::Fmt(mixed.OpsPerSec(), 0)};
    run.json.Str("policy", point.label)
        .Obj("fill", fill.Json()
                         .Num("write_amp", write_amp, 4)
                         .Num("space_amp", space_amp, 4)
                         .Int("user_bytes", user_bytes)
                         .Int("compaction_bytes", comp_bytes)
                         .Int("ssd_runs", ssd_runs)
                         .Int("max_ssd_level",
                              env->Metric("pmblade.lsm.max_ssd_level")))
        .Obj("read",
             read.Json().Num("ssd_reads_per_get", ssd_reads_per_get, 3))
        .Obj("mixed", mixed.Json());
    return run;
  };
  return sweep;
}

// Zipfian point-read sweep over SSD-resident keys, one fresh engine per
// point: the no-filter/no-cache baseline, blooms + block cache, and blooms
// + cache + memory arbiter. Loads EVEN key indices only and reads zipfian
// over twice the index space, so half the probes are absent keys
// INTERLEAVED with the present ones (they pass the tables' min/max range
// check and only a bloom can reject them without an SSD read). Everything
// is forced down to level-1 first, so every data-block read is an SSD read.
// The arbiter point then flips to a write-heavy phase and reports how the
// budget moved.
Sweep ReadSkew(const SweepParams& p) {
  // Key space: present keys are the EVEN indices in [0, 2*num); reads draw
  // zipfian from the full range.
  const KeySpec space{.num_keys = p.num * 2, .zipf_theta = p.zipf};

  Sweep sweep;
  sweep.name = "read_skew";
  sweep.output = "BENCH_read_path.json";
  sweep.engines = kPmBladeConfigs;
  sweep.columns = {"mode",          "ops/sec",    "ssd_reads/get",
                   "bloom_neg/get", "cache_hit%", "rebalances"};
  sweep.setup = [space](BenchEnvOptions* o) {
    o->arbiter_interval_ms = 25;  // visible shifts within bench runtime
    o->partition_boundaries = KeyGenerator(space).PartitionBoundaries(8);
  };
  // Each mode sets the bloom bits and the arbiter budget; the cache keeps
  // the configured size except in the no-filter baseline.
  auto mode = [](int bloom_bits, bool cache, uint64_t budget) {
    return [=](BenchEnvOptions* o) {
      o->bloom_bits_per_key = bloom_bits;
      if (!cache) o->block_cache_bytes = 0;
      o->memory_budget_bytes = budget;
    };
  };
  sweep.points = {{"no_filter", mode(0, false, 0)},
                  {"filter_cache", mode(10, true, 0)},
                  {"filter_cache_arbiter", mode(10, true, 8ull << 20)}};
  sweep.title = [p](const BenchEnvOptions&) {
    return "read_skew (zipf=" + TablePrinter::Fmt(p.zipf, 2) +
           ", 50% absent keys)";
  };
  sweep.run = [p, space](const SweepPoint& point, BenchEnv* env) {
    const BenchEnvOptions& opts = *env->mutable_options();
    DB* db = env->pmblade_db();

    // Load the even indices, then force everything to SSD level-1.
    KeyGenerator keys(space);
    ValueGenerator values(p.value_size);
    for (uint64_t i = 0; i < p.num && !InterruptRequested(); ++i) {
      CheckOp(db->Put(WriteOptions(), keys.KeyAt(2 * i), values.For(2 * i)));
    }
    CheckOp(db->FlushMemTable());
    CheckOp(db->CompactToLevel1(false));

    // Cold zipfian read phase over the doubled key space.
    KeyGenerator read_keys(space);
    const uint64_t ssd_reads_before = env->ssd_model()->reads();
    const uint64_t negatives_before = env->Metric("pmblade.bloom.negatives");
    std::string value;
    const Phase read = TimeOps(p.clock, 1, p.num, [&](int, uint64_t) {
      CheckOp(db->Get(ReadOptions(), read_keys.KeyAt(read_keys.NextIndex()),
                      &value));
    });
    const double ssd_reads_per_get =
        Ratio(env->ssd_model()->reads() - ssd_reads_before, read.ops);
    const double negatives_per_get = Ratio(
        env->Metric("pmblade.bloom.negatives") - negatives_before, read.ops);
    double cache_hit_ratio = 0;
    if (opts.block_cache_bytes > 0) {
      const uint64_t hits = env->Metric("pmblade.blockcache.hits");
      cache_hit_ratio =
          Ratio(hits, hits + env->Metric("pmblade.blockcache.misses"));
    }

    read.Report(point.label);
    SweepRun run;
    run.json.Str("mode", point.label)
        .Int("gets", read.ops)
        .Num("ops_per_sec", read.OpsPerSec(), 0)
        .Num("p99_us", read.P99Micros(), 2)
        .Num("ssd_reads_per_get", ssd_reads_per_get, 4)
        .Num("bloom_negatives_per_get", negatives_per_get, 4)
        .Num("cache_hit_ratio", cache_hit_ratio, 4);

    // Arbiter point only: flip to a write-heavy phase and record the
    // budget shift (read phase should have pulled budget toward the cache;
    // write backpressure pulls it back toward the memtable).
    uint64_t rebalances = 0;
    if (opts.memory_budget_bytes > 0) {
      auto targets = [env] {
        return JsonObject()
            .Int("memtable_target", env->Metric("pmblade.memtable.limit"))
            .Int("block_cache_target",
                 env->Metric("pmblade.blockcache.capacity"));
      };
      const JsonObject read_phase = targets();
      Random rng(301);
      for (uint64_t i = 0; i < p.num && !InterruptRequested(); ++i) {
        uint64_t k = rng.Uniform(p.num);
        CheckOp(db->Put(WriteOptions(), keys.KeyAt(2 * k), values.For(k)));
      }
      const JsonObject write_phase = targets();
      rebalances = env->Metric("pmblade.mem.rebalances");
      run.json.Obj("arbiter", JsonObject()
                                  .Int("rebalances", rebalances)
                                  .Obj("read_phase", read_phase)
                                  .Obj("write_phase", write_phase));
    }
    run.row = {point.label, TablePrinter::Fmt(read.OpsPerSec(), 0),
               TablePrinter::Fmt(ssd_reads_per_get, 3),
               TablePrinter::Fmt(negatives_per_get, 3),
               TablePrinter::Fmt(cache_hit_ratio * 100, 1),
               std::to_string(rebalances)};
    return run;
  };
  return sweep;
}

}  // namespace

std::vector<Sweep> BenchmarkSweeps(const SweepParams& params) {
  return {WriteScaling(params), CompactionParallel(params),
          PolicySweep(params), ReadSkew(params)};
}

}  // namespace bench
}  // namespace pmblade
