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
#include <filesystem>
#include <string>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "benchutil/reporter.h"
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
          "  --dir=PATH        scratch directory, created if missing "
          "(default /tmp)\n"
          "  --json=PATH       summary JSON (default "
          "crash_stress_summary.json, empty disables)\n"
          "  --verbose         per-cycle crash-plan log\n");
}

namespace bench = pmblade::bench;
using pmblade::test::CrashHarnessResult;
using pmblade::test::ShardedCrashHarnessResult;

// What each harness counts beyond cycles and crashes, for the summary row
// (`json`) and the PASS line (`text`).
void Tally(const CrashHarnessResult& r, bench::JsonObject* json,
           std::string* text) {
  json->Int("ops", r.ops_issued);
  *text = std::to_string(r.ops_issued) + " ops";
}
void Tally(const ShardedCrashHarnessResult& r, bench::JsonObject* json,
           std::string* text) {
  json->Int("batches", r.batches_issued)
      .Int("cross_shard_batches", r.cross_shard_batches);
  *text = std::to_string(r.batches_issued) + " batches (" +
          std::to_string(r.cross_shard_batches) + " cross-shard)";
}

// Runs one configuration, prints its verdict (with the command that
// replays a failure) and appends its summary row; false when an invariant
// broke.
template <typename Harness, typename HarnessOptions>
bool RunConfig(const std::string& name, const std::string& replay,
               const HarnessOptions& opts,
               std::vector<bench::JsonObject>* rows) {
  printf("== %s: %d cycles ==\n", name.c_str(), opts.cycles);
  fflush(stdout);
  Harness harness(opts);
  const auto result = harness.Run();
  bench::JsonObject tally;
  std::string text;
  Tally(result, &tally, &text);
  if (result.ok()) {
    printf("   %s: %d cycles (%d syncpoint / %d between-op crashes), %s\n",
           result.interrupted ? "INTERRUPTED (partial PASS)" : "PASS",
           result.cycles_run, result.syncpoint_crashes,
           result.between_op_crashes, text.c_str());
  } else {
    printf("   FAIL at cycle %d: %s\n   replay: crash_stress %s\n",
           result.failed_cycle, result.failure.c_str(), replay.c_str());
  }
  fflush(stdout);
  rows->push_back(bench::JsonObject()
                      .Str("name", name)
                      .Bool("ok", result.ok())
                      .Int("cycles_run", result.cycles_run)
                      .Int("syncpoint_crashes", result.syncpoint_crashes)
                      .Int("between_op_crashes", result.between_op_crashes)
                      .Append(tally)
                      .Int("failed_cycle", result.failed_cycle));
  return result.ok();
}

// The summary JSON: one row per configuration run.
void WriteSummaryJson(const std::string& path, unsigned long long seed,
                      long cycles, bool interrupted,
                      const std::vector<bench::JsonObject>& configs) {
  bench::WriteTextFile(path, bench::JsonObject()
                                 .Int("seed", seed)
                                 .Int("cycles_requested", cycles)
                                 .Bool("interrupted", interrupted)
                                 .Rows("configs", configs)
                                 .ToString() +
                                 "\n");
}

}  // namespace

int main(int argc, char** argv) {
  using pmblade::test::CrashHarness;
  using pmblade::test::CrashHarnessOptions;

  bench::Flags flags(argc, argv);
  if (flags.ReportUnknown({"cycles", "seed", "layout", "policy",
                           "pm-crash-sim", "all-layouts", "max-ops", "dir",
                           "json", "verbose", "shards", "wal"}) ||
      !flags.positional().empty()) {
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
  const std::string layout = flags.Str("layout", "pm");
  if (layout != "pm" && layout != "ssd") {
    fprintf(stderr, "unknown --layout '%s' (want pm|ssd)\n", layout.c_str());
    return 2;
  }
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

  // The harnesses create their DB directory inside --dir, not --dir itself.
  std::error_code mkdir_error;
  std::filesystem::create_directories(dir, mkdir_error);
  if (mkdir_error) {
    fprintf(stderr, "cannot create --dir '%s': %s\n", dir.c_str(),
            mkdir_error.message().c_str());
    return 2;
  }

  bench::InstallInterruptHandler();

  const std::string shard_flag =
      shards > 0 ? " --shards=" + std::to_string(shards) : "";
  const std::string replay =
      "--seed=" + std::to_string(seed) + " --cycles=" +
      std::to_string(cycles) + shard_flag + " --wal=" + wal +
      (policy == "leveled" ? "" : " --policy=" + policy);
  // The seed goes out first so a dead CI job still shows how to replay.
  printf("crash_stress: seed=%llu cycles=%ld (replay: crash_stress %s)\n",
         seed, cycles, replay.c_str());
  fflush(stdout);

  // The knobs every configuration shares; `dbname` names its directory.
  auto common = [&](auto* opts, const std::string& dbname) {
    opts->dbname = dir + "/" + dbname + std::to_string(seed);
    opts->seed = seed;
    opts->cycles = static_cast<int>(cycles);
    opts->max_ops_per_cycle = static_cast<int>(max_ops);
    opts->compaction_policy = policy;
    opts->wal_in_pm = wal_in_pm;
    opts->verbose = verbose;
    opts->stop_requested = [] { return bench::InterruptRequested(); };
  };

  bool ok = true;
  std::vector<bench::JsonObject> results;
  if (shards > 0) {
    // Sharded mode: power-cut a ShardedDB between 2PC prepare and commit
    // (and everywhere else) and demand every cross-shard batch reopens
    // all-or-nothing. Layout flags don't apply — each shard is a full
    // engine with the default PM layout.
    pmblade::test::ShardedCrashHarnessOptions opts;
    common(&opts, "pmblade_crash_stress_sharded_");
    opts.num_shards = static_cast<uint32_t>(shards);
    ok = RunConfig<pmblade::test::ShardedCrashHarness>(
        "sharded-x" + std::to_string(shards) + "-" + wal + "-wal", replay,
        opts, &results);
  }

  struct Config {
    const char* name;
    pmblade::L0Layout layout;
    bool pm_crash_sim;
  };
  std::vector<Config> configs;  // none in sharded mode
  if (shards == 0 && all_layouts) {
    configs = {{"pm", pmblade::L0Layout::kPmTable, false},
               {"ssd", pmblade::L0Layout::kSstable, false},
               {"pm+crash-sim", pmblade::L0Layout::kPmTable, true}};
  } else if (shards == 0) {
    configs = {{layout.c_str(),
                layout == "ssd" ? pmblade::L0Layout::kSstable
                                : pmblade::L0Layout::kPmTable,
                pm_crash_sim}};
  }
  for (const Config& config : configs) {
    if (bench::InterruptRequested()) break;
    CrashHarnessOptions opts;
    common(&opts, "pmblade_crash_stress_");
    opts.l0_layout = config.layout;
    opts.pm_crash_sim = config.pm_crash_sim;
    const bool ssd = config.layout == pmblade::L0Layout::kSstable;
    ok &= RunConfig<CrashHarness>(
        std::string(config.name) + "-" + wal + "-wal",
        replay + (ssd ? " --layout=ssd" : " --layout=pm") +
            (config.pm_crash_sim ? " --pm-crash-sim" : ""),
        opts, &results);
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
