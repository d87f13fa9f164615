// crash_stress: standalone randomized crash-recovery stress runner.
//
// Drives the same model-checked harness as tests/crash_recovery_test.cc but
// as a CLI, for long scheduled runs. By default the seed is drawn from the
// clock and PRINTED FIRST THING, so any failure replays exactly:
//
//   crash_stress --seed=<printed seed> --cycles=<N> [--layout=...] ...
//
// --wal=pm (the default) keeps the WAL in the PM pool and always runs with
// PM crash simulation: a power cut kills the pool with the SSD. --wal=ssd
// keeps it as files on the crash Env.
//
// SIGINT/SIGTERM stop the run at the next cycle boundary: the harness still
// performs its final-reopen invariant check, the partial results are printed
// and written to --json (default crash_stress_summary.json), and the exit
// status is 128+signal.
//
// Environment overrides (used by the CI stress job):
//   PMBLADE_CRASH_SEED    — same as --seed
//   PMBLADE_CRASH_CYCLES  — same as --cycles
//
// Exit status: 0 = every invariant held, 1 = loss/torn-batch/error detected,
// 2 = bad usage, 128+sig = interrupted (invariants held on what ran).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "compaction/policy/compaction_picker.h"
#include "tests/crash_harness.h"
#include "tests/sharded_crash_harness.h"
#include "util/clock.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: crash_stress [options]\n"
          "  --cycles=N        crash/reopen cycles per configuration "
          "(default 200)\n"
          "  --seed=S          workload/crash seed (default: from clock)\n"
          "  --layout=pm|ssd   level-0 layout (default pm)\n"
          "  --policy=NAME     SSD compaction policy: leveled (default),\n"
          "                    tiered or lazy_leveling\n"
          "  --pm-crash-sim    enable PM persist-granularity faults (always\n"
          "                    on with --wal=pm)\n"
          "  --wal=pm|ssd      WAL device (default pm)\n"
          "  --all-layouts     run pm, ssd and pm+crash-sim configurations\n"
          "  --shards=N        drive an N-shard ShardedDB instead: random\n"
          "                    cross-shard batches, power cuts between 2PC\n"
          "                    prepare and commit, all-or-nothing reopen "
          "check\n"
          "  --max-ops=N       max operations per cycle (default 120)\n"
          "  --dir=PATH        scratch directory (default /tmp)\n"
          "  --json=PATH       summary JSON (default "
          "crash_stress_summary.json, empty disables)\n"
          "  --verbose         per-cycle crash-plan log\n");
}

struct ConfigResult {
  std::string name;
  pmblade::test::CrashHarnessResult result;
};

void WriteSummaryJson(const std::string& path, unsigned long long seed,
                      long cycles, bool interrupted,
                      const std::vector<ConfigResult>& results) {
  if (path.empty()) return;
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) return;
  fprintf(out,
          "{\n  \"seed\": %llu,\n  \"cycles_requested\": %ld,\n"
          "  \"interrupted\": %s,\n  \"configs\": [\n",
          seed, cycles, interrupted ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    fprintf(out,
            "    {\"name\": \"%s\", \"ok\": %s, \"cycles_run\": %d, "
            "\"syncpoint_crashes\": %d, \"between_op_crashes\": %d, "
            "\"ops\": %lld, \"failed_cycle\": %d}%s\n",
            r.name.c_str(), r.result.ok() ? "true" : "false",
            r.result.cycles_run, r.result.syncpoint_crashes,
            r.result.between_op_crashes, r.result.ops_issued,
            r.result.failed_cycle, i + 1 < results.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);
  printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using pmblade::test::CrashHarness;
  using pmblade::test::CrashHarnessOptions;
  using pmblade::test::CrashHarnessResult;
  namespace bench = pmblade::bench;

  bench::Flags flags(argc, argv);
  std::vector<std::string> unknown = flags.Unknown(
      {"cycles", "seed", "layout", "policy", "pm-crash-sim", "all-layouts",
       "max-ops", "dir", "json", "verbose", "shards", "wal"});
  if (!unknown.empty() || !flags.positional().empty()) {
    for (const auto& f : unknown) {
      fprintf(stderr, "unknown flag --%s\n", f.c_str());
    }
    Usage();
    return 2;
  }

  long shards = static_cast<long>(flags.Int("shards", 0));
  if (flags.Has("shards") && (shards < 2 || shards > 64)) {
    fprintf(stderr, "--shards wants 2..64 (got %ld)\n", shards);
    return 2;
  }
  long cycles = static_cast<long>(flags.Int("cycles", 200));
  unsigned long long seed = static_cast<unsigned long long>(flags.Int(
      "seed",
      static_cast<int64_t>(pmblade::SystemClock()->NowNanos() / 1000000)));
  std::string layout = flags.Str("layout", "pm");
  std::string policy = flags.Str("policy", "leveled");
  if (!pmblade::IsValidCompactionPolicy(policy)) {
    fprintf(stderr,
            "unknown --policy '%s' (want leveled|tiered|lazy_leveling)\n",
            policy.c_str());
    return 2;
  }
  const bool pm_crash_sim = flags.Bool("pm-crash-sim", false);
  const std::string wal = flags.Str("wal", "pm");
  if (wal != "pm" && wal != "ssd") {
    fprintf(stderr, "unknown --wal '%s' (want pm|ssd)\n", wal.c_str());
    return 2;
  }
  const bool wal_in_pm = wal == "pm";
  const bool all_layouts = flags.Bool("all-layouts", false);
  long max_ops = static_cast<long>(flags.Int("max-ops", 120));
  std::string dir = flags.Str("dir", "/tmp");
  std::string json_path = flags.Str("json", "crash_stress_summary.json");
  const bool verbose = flags.Bool("verbose", false);

  if (const char* s = getenv("PMBLADE_CRASH_SEED")) {
    seed = strtoull(s, nullptr, 10);
  }
  if (const char* s = getenv("PMBLADE_CRASH_CYCLES")) {
    long v = strtol(s, nullptr, 10);
    if (v > 0) cycles = v;
  }

  bench::InstallInterruptHandler();

  // The seed goes out first so a dead CI job still shows how to replay.
  printf("crash_stress: seed=%llu cycles=%ld (replay: crash_stress "
         "--seed=%llu --cycles=%ld%s --wal=%s)\n",
         seed, cycles, seed, cycles,
         shards > 0 ? (" --shards=" + std::to_string(shards)).c_str() : "",
         wal.c_str());
  fflush(stdout);

  if (shards > 0) {
    // Sharded mode: power-cut a ShardedDB between 2PC prepare and commit
    // (and everywhere else) and demand every cross-shard batch reopens
    // all-or-nothing. Layout flags don't apply — each shard is a full
    // engine with the default PM layout.
    pmblade::test::ShardedCrashHarnessOptions opts;
    opts.dbname = dir + "/pmblade_crash_stress_sharded_" +
                  std::to_string(static_cast<unsigned long long>(seed));
    opts.seed = seed;
    opts.cycles = static_cast<int>(cycles);
    opts.num_shards = static_cast<uint32_t>(shards);
    opts.max_ops_per_cycle = static_cast<int>(max_ops);
    opts.compaction_policy = policy;
    opts.wal_in_pm = wal_in_pm;
    opts.verbose = verbose;
    opts.stop_requested = [] { return bench::InterruptRequested(); };

    printf("== sharded x%ld, %s wal: %ld cycles ==\n", shards, wal.c_str(),
           cycles);
    fflush(stdout);
    pmblade::test::ShardedCrashHarness harness(opts);
    pmblade::test::ShardedCrashHarnessResult result = harness.Run();
    if (result.ok()) {
      printf("   %s: %d cycles (%d syncpoint / %d between-op crashes), "
             "%lld batches (%lld cross-shard)\n",
             result.interrupted ? "INTERRUPTED (partial PASS)" : "PASS",
             result.cycles_run, result.syncpoint_crashes,
             result.between_op_crashes, result.batches_issued,
             result.cross_shard_batches);
    } else {
      printf("   FAIL at cycle %d: %s\n   replay: crash_stress --seed=%llu "
             "--cycles=%ld --shards=%ld --wal=%s\n",
             result.failed_cycle, result.failure.c_str(), seed, cycles,
             shards, wal.c_str());
    }
    fflush(stdout);
    if (!json_path.empty()) {
      FILE* out = fopen(json_path.c_str(), "w");
      if (out != nullptr) {
        fprintf(out,
                "{\n  \"seed\": %llu,\n  \"cycles_requested\": %ld,\n"
                "  \"interrupted\": %s,\n  \"configs\": [\n"
                "    {\"name\": \"sharded-x%ld-%s-wal\", \"ok\": %s, "
                "\"cycles_run\": %d, \"syncpoint_crashes\": %d, "
                "\"between_op_crashes\": %d, \"batches\": %lld, "
                "\"cross_shard_batches\": %lld, \"failed_cycle\": %d}\n"
                "  ]\n}\n",
                seed, cycles,
                bench::InterruptRequested() ? "true" : "false", shards,
                wal.c_str(), result.ok() ? "true" : "false",
                result.cycles_run,
                result.syncpoint_crashes, result.between_op_crashes,
                result.batches_issued, result.cross_shard_batches,
                result.failed_cycle);
        fclose(out);
        printf("wrote %s\n", json_path.c_str());
      }
    }
    if (!result.ok()) return 1;
    if (bench::InterruptRequested()) return 128 + bench::InterruptSignal();
    return 0;
  }

  struct Config {
    const char* name;
    pmblade::L0Layout layout;
    bool pm_crash_sim;
  };
  std::vector<Config> configs;
  if (all_layouts) {
    configs = {{"pm", pmblade::L0Layout::kPmTable, false},
               {"ssd", pmblade::L0Layout::kSstable, false},
               {"pm+crash-sim", pmblade::L0Layout::kPmTable, true}};
  } else {
    configs = {{layout.c_str(),
                layout == "ssd" ? pmblade::L0Layout::kSstable
                                : pmblade::L0Layout::kPmTable,
                pm_crash_sim}};
  }

  bool ok = true;
  std::vector<ConfigResult> results;
  for (const Config& config : configs) {
    if (bench::InterruptRequested()) break;
    CrashHarnessOptions opts;
    opts.dbname = dir + "/pmblade_crash_stress_" +
                  std::to_string(static_cast<unsigned long long>(seed));
    opts.seed = seed;
    opts.cycles = static_cast<int>(cycles);
    opts.l0_layout = config.layout;
    opts.pm_crash_sim = config.pm_crash_sim;
    opts.wal_in_pm = wal_in_pm;
    opts.max_ops_per_cycle = static_cast<int>(max_ops);
    opts.compaction_policy = policy;
    opts.verbose = verbose;
    opts.stop_requested = [] { return bench::InterruptRequested(); };

    printf("== %s, %s wal: %ld cycles ==\n", config.name, wal.c_str(),
           cycles);
    fflush(stdout);
    CrashHarness harness(opts);
    CrashHarnessResult result = harness.Run();
    results.push_back({std::string(config.name) + "-" + wal + "-wal", result});
    if (result.ok()) {
      printf("   %s: %d cycles (%d syncpoint / %d between-op crashes), "
             "%lld ops\n",
             result.interrupted ? "INTERRUPTED (partial PASS)" : "PASS",
             result.cycles_run, result.syncpoint_crashes,
             result.between_op_crashes, result.ops_issued);
    } else {
      printf("   FAIL at cycle %d: %s\n   replay: crash_stress --seed=%llu "
             "--cycles=%ld --wal=%s --layout=%s%s%s\n",
             result.failed_cycle, result.failure.c_str(), seed, cycles,
             wal.c_str(),
             config.layout == pmblade::L0Layout::kSstable ? "ssd" : "pm",
             config.pm_crash_sim ? " --pm-crash-sim" : "",
             policy == "leveled" ? ""
                                 : (" --policy=" + policy).c_str());
      ok = false;
    }
    fflush(stdout);
  }

  const bool interrupted = bench::InterruptRequested();
  WriteSummaryJson(json_path, seed, cycles, interrupted, results);
  if (!ok) return 1;
  if (interrupted) {
    printf("crash_stress: interrupted by signal %d, partial results above\n",
           bench::InterruptSignal());
    return 128 + bench::InterruptSignal();
  }
  return 0;
}
