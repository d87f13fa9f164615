// perfbench: end-to-end RESP benchmark of pmblade with per-layer
// attribution.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// A run is a sequence of rounds. Each round sets up a fresh engine (MemEnv
// files under a SimEnv/SsdModel, a PM pool file in DIR), pre-loads it,
// quiesces, starts a net::Server with two workers and drives two
// closed-loop RESP connections through a FIXED number of operations each.
// Operation classes the workload's mix lacks are then measured by a short
// fixed-count probe phase, so every end-to-end metric exists on every
// workload. Each round ends by closing the engine, reopening it and
// checking every key against the generator's model. Rounds repeat until
// the mix phases have taken --seconds in total (at least kMinRounds).
// Wall-clock metrics come from the faster half of the rounds (FasterHalf),
// counts and set-up time are medians over all rounds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics of the traced ones,
// plus the tracing overhead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every operation succeeded and every check
// passed.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/db.h"
#include "env/sim_env.h"
#include "env/ssd_model.h"
#include "mem_env.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "resp_client.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using pmblade::DB;
using pmblade::Options;
using pmblade::Status;
using pmblade::net::RespValue;

constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 12;
constexpr uint64_t kProbeOpsPerConn = 4000;
constexpr size_t kMultiKeys = 4;
constexpr size_t kPreloadBatch = 1000;
constexpr size_t kWireRecordBytes = 4 << 20;
const std::chrono::milliseconds kQuiesceTimeout(60000);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      args->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Engine: one fresh instance per round.

struct Engine {
  std::unique_ptr<MemEnv> files;
  std::unique_ptr<TraceEnv> raw_env;   // major compaction's unsimulated Env
  std::unique_ptr<TraceEnv> sim_base;  // what SimEnv charges the model over
  std::unique_ptr<TraceClock> clock;
  std::unique_ptr<pmblade::SsdModel> model;
  std::unique_ptr<pmblade::SimEnv> sim;
  Options options;
  std::string dbname = "memdb";
  std::unique_ptr<DB> db;
  std::unique_ptr<TraceDB> traced;
  std::unique_ptr<pmblade::net::Server> server;  // destroyed first
};

Status OpenEngine(const WorkloadSpec& spec, Tracer* tracer,
                  const std::string& pool_path, Engine* e) {
  e->files = std::make_unique<MemEnv>();
  e->raw_env = std::make_unique<TraceEnv>(e->files.get(), tracer, false);
  e->sim_base = std::make_unique<TraceEnv>(e->files.get(), tracer, true);
  e->clock = std::make_unique<TraceClock>(tracer);
  pmblade::SsdModelOptions mopts;
  mopts.clock = e->clock.get();
  e->model = std::make_unique<pmblade::SsdModel>(mopts);
  e->sim = std::make_unique<pmblade::SimEnv>(e->sim_base.get(), e->model.get());

  Options& o = e->options;
  o.env = e->sim.get();
  o.raw_env = e->raw_env.get();
  o.ssd_model = e->model.get();
  o.pm_pool_path = pool_path;
  o.num_shards = spec.shards;
  o.block_cache_bytes = spec.block_cache_bytes;
  o.memory_budget_bytes = 0;  // the arbiter's timer is time-triggered work
  if (spec.memtable_bytes != 0) o.memtable_bytes = spec.memtable_bytes;
  if (spec.tau_m != 0) {
    o.cost.tau_m = spec.tau_m;
    o.cost.tau_t = spec.tau_m / 2;
  }
  return DB::Open(o, e->dbname, &e->db);
}

void RemovePool(const std::string& pool_path, uint32_t shards) {
  ::unlink(pool_path.c_str());
  for (uint32_t i = 0; i < shards; ++i) {
    ::unlink((pool_path + ".shard-" + std::to_string(i)).c_str());
  }
}

std::map<std::string, double> Counters(DB* db) {
  std::map<std::string, double> m;
  for (const auto& s : db->metrics_registry()->Snapshot(0).samples) {
    m[s.name] = s.kind == pmblade::obs::MetricKind::kHistogram
                    ? static_cast<double>(s.hist.count())
                    : s.value;
  }
  return m;
}

uint64_t Property(DB* db, const char* name) {
  uint64_t v = 0;
  db->GetProperty(name, &v);
  return v;
}

bool Quiesce(DB* db) {
  return WaitForIdle(
      [db] {
        auto c = Counters(db);
        return Property(db, "pmblade.compaction-queue-depth") == 0 &&
               Property(db, "pmblade.compaction-active") == 0 &&
               c["pmblade.flush.queue_depth"] == 0;
      },
      kQuiesceTimeout);
}

// ---------------------------------------------------------------------------
// Generator model and client loop.

// Last acknowledged version per id (0 = never written). Only a key's owner
// (id % kConnections) writes it; readers load it before sending a request,
// so an acked write is always older than any read that observed it.
class Model {
 public:
  explicit Model(uint64_t n) : versions_(n) {}
  uint64_t size() const { return versions_.size(); }
  uint32_t Get(uint64_t id) const {
    return versions_[id].load(std::memory_order_acquire);
  }
  void Set(uint64_t id, uint32_t v) {
    versions_[id].store(v, std::memory_order_release);
  }

 private:
  std::vector<std::atomic<uint32_t>> versions_;
};

struct ConnResult {
  std::vector<double> lat_us[kNumOpClasses];
  uint64_t attempted = 0;
  uint64_t failed = 0;      // error replies, sheds, broken connections
  uint64_t mismatches = 0;  // replies that contradict the model
  uint64_t writes = 0;      // acked SET / MSET commands
  uint64_t user_bytes = 0;  // acked key + value bytes
  std::vector<TimedKey> get_spans;  // GET hits (traced rounds)
  std::string wire;                 // request bytes (traced rounds)
  uint64_t wire_commands = 0;
};

struct LoadGen {
  const WorkloadSpec& spec;
  Model* model;
  const ScrambledZipfian* zipf;
  bool traced;
};

uint64_t Draw(const LoadGen& d, Rng* rng) {
  return d.spec.dist == KeyDist::kZipfian ? d.zipf->Next(rng)
                                          : rng->Uniform(d.spec.keyspace);
}

uint64_t Owned(uint64_t id, int conn, uint64_t limit) {
  id = id - id % kConnections + static_cast<uint64_t>(conn);
  return id < limit ? id : id - kConnections;
}

// Checks one read of `id` against the model. `before` is the model version
// loaded just before the request was sent.
bool ReadMatches(const LoadGen& d, uint64_t id, const std::string& key,
                 int conn, uint32_t before, const RespValue& reply) {
  const bool owner = id % kConnections == static_cast<uint64_t>(conn);
  if (reply.IsNull()) return before == 0;
  uint32_t version = 0;
  if (!ParseValue(key, reply.str, &version)) return false;
  if (owner) return version == before;
  return version >= before && version >= 1 && id < d.model->size();
}

class Connection {
 public:
  Connection(const LoadGen& d, int conn, RespClient* client, ConnResult* out)
      : d_(d), conn_(conn), client_(client), out_(out) {}

  void Run(OpClass op, Rng* rng, bool probe) {
    switch (op) {
      case OpClass::kGetHit:
      case OpClass::kGetMiss:
        Get(probe ? d_.spec.keyspace + rng->Uniform(d_.spec.keyspace)
                  : Draw(d_, rng));
        break;
      case OpClass::kSet: {
        const uint64_t limit = probe ? d_.spec.preload_keys : d_.spec.keyspace;
        const uint64_t id =
            Owned(probe ? rng->Uniform(limit) : Draw(d_, rng), conn_, limit);
        WriteKeys(OpClass::kSet, {id});
        break;
      }
      case OpClass::kMGet: {
        std::vector<uint64_t> ids;
        for (size_t i = 0; i < kMultiKeys; ++i) ids.push_back(Draw(d_, rng));
        MGet(ids);
        break;
      }
      case OpClass::kMSet: {
        const uint64_t limit = probe ? d_.spec.preload_keys : d_.spec.keyspace;
        std::vector<uint64_t> ids;
        while (ids.size() < kMultiKeys) {
          const uint64_t id = Owned(probe ? rng->Uniform(limit)
                                          : Draw(d_, rng), conn_, limit);
          if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
            ids.push_back(id);
          }
        }
        WriteKeys(OpClass::kMSet, ids);
        break;
      }
    }
  }

 private:
  bool Call(const std::vector<std::string>& args, RespValue* reply,
            uint64_t* start, uint64_t* end) {
    ++out_->attempted;
    std::string* wire = nullptr;
    if (d_.traced && out_->wire.size() < kWireRecordBytes) {
      wire = &out_->wire;
      ++out_->wire_commands;
    }
    *start = NowNanos();
    const bool ok = client_->Call(args, reply, wire);
    *end = NowNanos();
    if (!ok || reply->IsError()) {
      ++out_->failed;
      return false;
    }
    return true;
  }

  void Get(uint64_t id) {
    const std::string key = KeyName(id);
    const uint32_t before = id < d_.model->size() ? d_.model->Get(id) : 0;
    RespValue reply;
    uint64_t start, end;
    if (!Call({"GET", key}, &reply, &start, &end)) return;
    const GetReply kind = ClassifyGetReply(reply);
    if (kind == GetReply::kFailed) {
      ++out_->failed;
      return;
    }
    if (!ReadMatches(d_, id, key, conn_, before, reply)) ++out_->mismatches;
    const OpClass op = kind == GetReply::kHit ? OpClass::kGetHit
                                              : OpClass::kGetMiss;
    out_->lat_us[static_cast<int>(op)].push_back((end - start) / 1e3);
    if (d_.traced && op == OpClass::kGetHit) {
      out_->get_spans.push_back(TimedKey{KeyNumberOf(id), start, end});
    }
  }

  void MGet(const std::vector<uint64_t>& ids) {
    std::vector<std::string> args{"MGET"};
    std::vector<uint32_t> before;
    for (uint64_t id : ids) {
      args.push_back(KeyName(id));
      before.push_back(d_.model->Get(id));
    }
    RespValue reply;
    uint64_t start, end;
    if (!Call(args, &reply, &start, &end)) return;
    if (reply.type != RespValue::Type::kArray ||
        reply.array.size() != ids.size()) {
      ++out_->failed;
      return;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!ReadMatches(d_, ids[i], args[i + 1], conn_, before[i],
                       reply.array[i])) {
        ++out_->mismatches;
      }
    }
    out_->lat_us[static_cast<int>(OpClass::kMGet)].push_back((end - start) /
                                                             1e3);
  }

  void WriteKeys(OpClass op, const std::vector<uint64_t>& ids) {
    std::vector<std::string> args{op == OpClass::kSet ? "SET" : "MSET"};
    std::vector<uint32_t> versions;
    uint64_t bytes = 0;
    for (uint64_t id : ids) {
      const std::string key = KeyName(id);
      versions.push_back(d_.model->Get(id) + 1);
      args.push_back(key);
      args.push_back(MakeValue(key, versions.back(), d_.spec.value_bytes));
      bytes += key.size() + args.back().size();
    }
    RespValue reply;
    uint64_t start, end;
    if (!Call(args, &reply, &start, &end)) return;
    if (reply.type != RespValue::Type::kSimpleString || reply.str != "OK") {
      ++out_->failed;
      return;
    }
    for (size_t i = 0; i < ids.size(); ++i) d_.model->Set(ids[i], versions[i]);
    ++out_->writes;
    out_->user_bytes += bytes;
    out_->lat_us[static_cast<int>(op)].push_back((end - start) / 1e3);
  }

  const LoadGen& d_;
  int conn_;
  RespClient* client_;
  ConnResult* out_;
};

OpClass PickMixOp(const WorkloadSpec& s, Rng* rng) {
  double r = rng->NextDouble();
  if ((r -= s.w_get) < 0) return OpClass::kGetHit;
  if ((r -= s.w_set) < 0) return OpClass::kSet;
  if ((r -= s.w_mget) < 0) return OpClass::kMGet;
  return OpClass::kMSet;
}

// Which classes the mix itself produces; the others get a probe phase.
std::vector<bool> MixClasses(const WorkloadSpec& s) {
  std::vector<bool> in(kNumOpClasses, false);
  in[int(OpClass::kGetHit)] = s.w_get > 0 && s.preload_keys > 0;
  in[int(OpClass::kGetMiss)] = s.w_get > 0 && s.keyspace > s.preload_keys;
  in[int(OpClass::kSet)] = s.w_set > 0;
  in[int(OpClass::kMGet)] = s.w_mget > 0;
  in[int(OpClass::kMSet)] = s.w_mset > 0;
  return in;
}

// Runs `body(conn, client, result)` on kConnections threads and merges.
template <typename Body>
ConnResult RunConnections(std::vector<std::unique_ptr<RespClient>>* clients,
                          Body body) {
  std::vector<ConnResult> results(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(
        [&, c] { body(c, (*clients)[c].get(), &results[c]); });
  }
  for (auto& t : threads) t.join();
  ConnResult all;
  for (auto& r : results) {
    for (int k = 0; k < kNumOpClasses; ++k) {
      all.lat_us[k].insert(all.lat_us[k].end(), r.lat_us[k].begin(),
                           r.lat_us[k].end());
    }
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.mismatches += r.mismatches;
    all.writes += r.writes;
    all.user_bytes += r.user_bytes;
    all.get_spans.insert(all.get_spans.end(), r.get_spans.begin(),
                         r.get_spans.end());
    all.wire += r.wire;
    all.wire_commands += r.wire_commands;
  }
  return all;
}

// ---------------------------------------------------------------------------
// One round.

struct RoundResult {
  bool traced = false;
  double mix_seconds = 0;
  std::map<std::string, double> m;  // metric name -> value
  std::vector<double> lat_us[kNumOpClasses];  // from the mix or the probes
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string error;  // set-up / quiesce / reopen failure
};

double SpanPct(const std::vector<Span>& spans, SpanKind kind, double p) {
  std::vector<double> us;
  for (const auto& s : spans) {
    if (s.kind == kind) us.push_back((s.end - s.start) / 1e3);
  }
  return Percentile(us, p);
}

double ParseNanosPerCommand(const std::string& wire, uint64_t commands) {
  if (commands == 0) return 0;
  std::vector<double> per_cmd;
  for (int rep = 0; rep < 5; ++rep) {
    pmblade::net::RespParser parser;
    parser.Feed(wire.data(), wire.size());
    RespValue v;
    uint64_t n = 0;
    const uint64_t start = NowNanos();
    while (parser.Next(&v) == pmblade::net::RespParser::Result::kValue) ++n;
    const uint64_t end = NowNanos();
    if (n != commands) return 0;
    per_cmd.push_back(double(end - start) / double(n));
  }
  return Median(per_cmd);
}

void LayerMetrics(const ConnResult& mix,
                  const std::vector<Span>& spans, uint64_t syncs,
                  const std::map<std::string, double>& before,
                  std::map<std::string, double>& after, double mix_ns,
                  double live_bytes, Engine* e, RoundResult* r) {
  auto d = [&](const char* name) {
    auto it = before.find(name);
    return after[name] - (it == before.end() ? 0 : it->second);
  };
  auto& m = r->m;
  const double commands = mix.attempted;
  const double writes = mix.writes;
  const double gets = d("pmblade.reads.memtable") + d("pmblade.reads.pm_l0") +
                      d("pmblade.reads.ssd_l1") + d("pmblade.reads.miss");

  std::vector<TimedKey> calls;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kDbGetHit) calls.push_back({s.key, s.start, s.end});
  }
  std::vector<double> self_us = SelfTimes(mix.get_spans, calls);
  for (auto& v : self_us) v /= 1e3;
  m["net.self_us_p50"] = Percentile(self_us, 50);
  m["net.parse_ns_per_cmd"] = ParseNanosPerCommand(mix.wire, mix.wire_commands);
  m["net.error_replies_per_kop"] =
      Ratio(d("pmblade.server.error_replies") * 1000, commands);
  m["net.sheds_per_kop"] = Ratio(d("pmblade.server.sheds") * 1000, commands);

  m["core.get_us_p50"] = SpanPct(spans, SpanKind::kDbGetHit, 50);
  m["core.get_us_p95"] = SpanPct(spans, SpanKind::kDbGetHit, 95);
  m["core.get_miss_us_p50"] = SpanPct(spans, SpanKind::kDbGetMiss, 50);
  m["core.put_us_p50"] = SpanPct(spans, SpanKind::kDbPut, 50);
  m["core.put_us_p95"] = SpanPct(spans, SpanKind::kDbPut, 95);
  m["core.write_batch_us_p50"] = SpanPct(spans, SpanKind::kDbWrite, 50);
  m["core.write_groups_per_write"] =
      Ratio(d("pmblade.write.groups"), d("pmblade.write.group_writes"));
  m["core.stall_ms"] = d("pmblade.write.stall_nanos") / 1e6;
  m["core.slowdowns_per_kwrite"] =
      Ratio(d("pmblade.write.slowdowns") * 1000, writes);
  m["core.user_bytes_ratio"] =
      Ratio(d("pmblade.write.user_bytes"), double(mix.user_bytes));

  m["memtable.read_frac"] = Ratio(d("pmblade.reads.memtable"), gets);
  m["memtable.wal_append_us_p50"] = SpanPct(spans, SpanKind::kEnvWalAppend, 50);
  m["memtable.wal_syncs_per_write"] = Ratio(d("pmblade.wal.syncs"), writes);

  m["pm.read_frac"] = Ratio(d("pmblade.reads.pm_l0"), gets);
  m["pm.bytes_read_per_get"] = Ratio(d("pmblade.pm.bytes_read"), gets);
  m["pm.read_accesses_per_get"] = Ratio(d("pmblade.pm.read_accesses"), gets);
  m["pm.write_amp"] =
      Ratio(d("pmblade.pm.bytes_written"), double(mix.user_bytes));
  m["pm.persists_per_write"] = Ratio(d("pmblade.pm.persists"), writes);
  m["pm.used_per_live_byte"] =
      Ratio(after["pmblade.pm.used_bytes"], live_bytes);

  m["sstable.read_frac"] = Ratio(d("pmblade.reads.ssd_l1"), gets);
  m["sstable.ssd_reads_per_get"] = Ratio(double(e->model->reads()), gets);
  m["sstable.blockcache_hit_ratio"] =
      Ratio(d("pmblade.blockcache.hits"),
            d("pmblade.blockcache.hits") + d("pmblade.blockcache.misses"));
  m["sstable.bloom_negative_ratio"] =
      Ratio(d("pmblade.bloom.negatives"), d("pmblade.bloom.checks"));
  m["sstable.bloom_fp_ratio"] =
      Ratio(d("pmblade.bloom.false_positives"), d("pmblade.bloom.checks"));

  double bg_ns = 0;
  for (const auto& s : spans) {
    if (s.kind == SpanKind::kEnvBgIo) bg_ns += double(s.end - s.start);
  }
  m["env.fg_read_us_p50"] = SpanPct(spans, SpanKind::kEnvFgRead, 50);
  m["env.fsyncs_per_write"] = Ratio(double(syncs), writes);
  m["env.ssd_busy_frac"] = Ratio(double(e->model->BusyNanos()), mix_ns);
  m["env.ssd_queue_high_water"] = after["pmblade.ssd.queue_high_water"];
  m["env.bg_io_ms"] = bg_ns / 1e6;

  m["compaction.flushes"] = d("pmblade.flush.count");
  m["compaction.internal_count"] = d("pmblade.compaction.internal.count");
  m["compaction.internal_dedupe_ratio"] =
      Ratio(d("pmblade.compaction.internal.bytes_out"),
            d("pmblade.compaction.internal.bytes_in"));
  m["compaction.major_count"] = d("pmblade.compaction.major.count");
  m["compaction.major_wall_ms"] =
      d("pmblade.compaction.major.wall_nanos") / 1e6;
  m["compaction.major_ssd_bytes"] = d("pmblade.compaction.major.ssd_bytes");
  m["compaction.sched_deduped"] = d("pmblade.compaction.sched.deduped");
  m["compaction.sched_failed"] = d("pmblade.compaction.sched.failed");
  m["compaction.eq1_triggered"] = d("pmblade.cost.eq1_triggered");
  m["compaction.eq2_triggered"] = d("pmblade.cost.eq2_triggered");
  m["compaction.keep_set_selections"] = d("pmblade.cost.keep_set_selections");
  m["compaction.coro_resumes"] = d("pmblade.compaction.major.coro_resumes");
}

// Reopens the closed engine over the same files and pool, and checks that
// it holds exactly the model's keys at their last acked versions.
std::string VerifyReopen(Engine* e, const Model& model) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(e->options, e->dbname, &db);
  if (!s.ok()) return "reopen: " + s.ToString();
  std::unordered_map<uint64_t, uint64_t> ids;  // key number -> id
  for (uint64_t id = 0; id < model.size(); ++id) {
    if (model.Get(id) != 0) ids.emplace(KeyNumberOf(id), id);
  }
  uint64_t seen = 0;
  std::unique_ptr<pmblade::Iterator> it(
      db->NewIterator(pmblade::ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string key = it->key().ToString();
    auto found = ids.find(KeyNumber(key));
    uint32_t version = 0;
    if (found == ids.end() || !ParseValue(key, it->value(), &version) ||
        version != model.Get(found->second)) {
      return "reopen: unexpected value for " + key;
    }
    ++seen;
  }
  if (!it->status().ok()) return "reopen scan: " + it->status().ToString();
  if (seen != ids.size()) {
    return "reopen: " + std::to_string(seen) + " keys, model has " +
           std::to_string(ids.size());
  }
  return "";
}

// Keeps every CPU busy at the lowest scheduling priority while a round is
// timed, so a CPU never halts between requests: on a virtual machine,
// waking a halted vCPU costs host time that would land in the measurements.
// Any runnable benchmark or engine thread preempts a spinner at once.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::thread::hardware_concurrency();
    for (unsigned cpu = 0; cpu < n; ++cpu) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

RoundResult RunRound(const WorkloadSpec& spec, const ScrambledZipfian* zipf,
                     uint64_t seed, int round, bool traced, Tracer* tracer,
                     const std::string& pool) {
  RoundResult r;
  r.traced = traced;
  Model model(spec.keyspace);
  const LoadGen gen{spec, &model, zipf, traced};

  auto spinners = std::make_unique<IdleSpinners>();
  const uint64_t setup_start = NowNanos();
  auto e = std::make_unique<Engine>();
  Status s = OpenEngine(spec, tracer, pool, e.get());
  // Pre-load through large batches, then shape the tree.
  for (uint64_t id = 0; s.ok() && id < spec.preload_keys;) {
    pmblade::WriteBatch batch;
    for (size_t i = 0; i < kPreloadBatch && id < spec.preload_keys; ++i, ++id) {
      const std::string key = KeyName(id);
      batch.Put(key, MakeValue(key, 1, spec.value_bytes));
      model.Set(id, 1);
    }
    s = e->db->Write(pmblade::WriteOptions(), &batch);
  }
  if (s.ok() && (spec.flush_and_sort_l0 || spec.move_to_level1)) {
    s = e->db->FlushMemTable();
  }
  if (s.ok() && spec.flush_and_sort_l0) s = e->db->CompactLevel0();
  if (s.ok() && spec.move_to_level1) {
    const uint64_t t = NowNanos();
    s = e->db->CompactToLevel1(false);
    r.m["compaction.to_level1_s"] = (NowNanos() - t) / 1e9;
  } else {
    r.m["compaction.to_level1_s"] = 0;
  }
  if (!s.ok()) {
    r.error = "set-up: " + s.ToString();
    return r;
  }
  if (!Quiesce(e->db.get())) {
    r.error = "set-up quiesce timed out";
    return r;
  }
  e->traced = std::make_unique<TraceDB>(e->db.get(), tracer);
  pmblade::net::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = kServerWorkers;
  e->server = std::make_unique<pmblade::net::Server>(sopts, e->traced.get());
  s = e->server->Start();
  std::vector<std::unique_ptr<RespClient>> clients;
  for (int c = 0; s.ok() && c < kConnections; ++c) {
    clients.push_back(std::make_unique<RespClient>());
    if (!clients.back()->Connect(e->server->port())) {
      s = Status::IOError("connect");
    }
  }
  if (!s.ok()) {
    r.error = "server: " + s.ToString();
    return r;
  }
  r.m["setup_s"] = (NowNanos() - setup_start) / 1e9;

  // ---- measured mix: fixed operation count per connection ----
  const std::vector<bool> in_mix = MixClasses(spec);
  const bool mix_writes = in_mix[int(OpClass::kSet)] ||
                          in_mix[int(OpClass::kMSet)];
  auto before = Counters(e->db.get());
  e->model->ResetStats();
  tracer->Take();
  tracer->set_enabled(traced);
  const uint64_t mix_start = NowNanos();
  ConnResult mix = RunConnections(
      &clients, [&](int c, RespClient* client, ConnResult* out) {
        Rng rng(seed * 1000003 + uint64_t(round) * 101 + uint64_t(c));
        Connection conn(gen, c, client, out);
        for (uint64_t i = 0; i < spec.ops_per_conn; ++i) {
          conn.Run(PickMixOp(spec, &rng), &rng, /*probe=*/false);
        }
      });
  const uint64_t mix_end = NowNanos();

  tracer->set_enabled(false);
  const uint64_t syncs = tracer->syncs();
  std::vector<Span> spans = tracer->Take();
  r.mix_seconds = (mix_end - mix_start) / 1e9;
  if (!Quiesce(e->db.get())) {
    r.error = "quiesce after the mix timed out";
    return r;
  }
  auto after = Counters(e->db.get());
  double live_bytes = 0;
  for (uint64_t id = 0; id < model.size(); ++id) {
    if (model.Get(id) != 0) live_bytes += KeyName(id).size() + spec.value_bytes;
  }
  const double stored = Property(e->db.get(), "pmblade.pm-used-bytes") +
                        Property(e->db.get(), "pmblade.ssd-bytes");
  r.m["ops_per_s"] = (mix.attempted - mix.failed) / r.mix_seconds;
  r.m["space_amp"] = Ratio(stored, live_bytes);
  if (mix_writes) {
    r.m["write_amp"] =
        Ratio(double(e->model->bytes_written()), double(mix.user_bytes));
  }
  if (traced) {
    LayerMetrics(mix, spans, syncs, before, after,
                 double(mix_end - mix_start), live_bytes, e.get(), &r);
  }

  // ---- probes for the classes the mix lacks ----
  const uint64_t probe_ssd_before = e->model->bytes_written();
  ConnResult probe = RunConnections(
      &clients, [&](int c, RespClient* client, ConnResult* out) {
        Rng rng(seed * 1000003 + uint64_t(round) * 101 + uint64_t(c) + 50);
        Connection conn(gen, c, client, out);
        // Interleaved, so every probed class spans the whole probe window
        // and a short host stall cannot land on one class alone.
        std::vector<OpClass> absent;
        for (int k = 0; k < kNumOpClasses; ++k) {
          if (!in_mix[k]) absent.push_back(static_cast<OpClass>(k));
        }
        for (uint64_t i = 0; i < kProbeOpsPerConn * absent.size(); ++i) {
          conn.Run(absent[i % absent.size()], &rng, /*probe=*/true);
        }
      });
  if (!mix_writes) {
    if (!Quiesce(e->db.get())) {
      r.error = "quiesce after the probes timed out";
      return r;
    }
    r.m["write_amp"] =
        Ratio(double(e->model->bytes_written() - probe_ssd_before),
              double(probe.user_bytes));
  }
  for (int k = 0; k < kNumOpClasses; ++k) {
    r.lat_us[k] = std::move(in_mix[k] ? mix.lat_us[k] : probe.lat_us[k]);
  }
  r.attempted = mix.attempted + probe.attempted;
  r.failed = mix.failed + probe.failed;
  r.mismatches = mix.mismatches + probe.mismatches;

  // ---- close, reopen, verify (untimed) ----
  spinners.reset();
  clients.clear();
  e->server->Stop();
  e->server.reset();
  e->traced.reset();
  e->db.reset();
  r.error = VerifyReopen(e.get(), model);
  return r;
}

// ---------------------------------------------------------------------------
// Output.

// How a metric's per-round values become the run's value.
enum class Agg {
  kMedian,    // median over rounds: counts and set-up time
  kFastHalf,  // median over the faster half of rounds (see FasterHalf)
  kLatency,   // percentile of the pooled samples of the faster half
  kProcess,   // one value for the whole process
};

struct MetricDef {
  const char* name;
  const char* unit;
  Agg agg = Agg::kMedian;
  OpClass op = OpClass::kGetHit;  // kLatency only
  double pct = 0;                 // kLatency only
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "1/s", Agg::kFastHalf},
      {"get_p50_us", "us", Agg::kLatency, OpClass::kGetHit, 50},
      {"get_p95_us", "us", Agg::kLatency, OpClass::kGetHit, 95},
      {"miss_p50_us", "us", Agg::kLatency, OpClass::kGetMiss, 50},
      {"set_p50_us", "us", Agg::kLatency, OpClass::kSet, 50},
      {"set_p95_us", "us", Agg::kLatency, OpClass::kSet, 95},
      {"mget_p50_us", "us", Agg::kLatency, OpClass::kMGet, 50},
      {"mget_p95_us", "us", Agg::kLatency, OpClass::kMGet, 95},
      {"mset_p50_us", "us", Agg::kLatency, OpClass::kMSet, 50},
      {"mset_p95_us", "us", Agg::kLatency, OpClass::kMSet, 95},
      {"write_amp", "ratio"},
      {"space_amp", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB", Agg::kProcess},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"net.self_us_p50", "us"},
      {"net.parse_ns_per_cmd", "ns"},
      {"net.error_replies_per_kop", "count"},
      {"net.sheds_per_kop", "count"},
      {"core.get_us_p50", "us"},
      {"core.get_us_p95", "us"},
      {"core.get_miss_us_p50", "us"},
      {"core.put_us_p50", "us"},
      {"core.put_us_p95", "us"},
      {"core.write_batch_us_p50", "us"},
      {"core.write_groups_per_write", "ratio"},
      {"core.stall_ms", "ms"},
      {"core.slowdowns_per_kwrite", "count"},
      {"core.user_bytes_ratio", "ratio"},
      {"memtable.read_frac", "ratio"},
      {"memtable.wal_append_us_p50", "us"},
      {"memtable.wal_syncs_per_write", "ratio"},
      {"pm.read_frac", "ratio"},
      {"pm.bytes_read_per_get", "B"},
      {"pm.read_accesses_per_get", "count"},
      {"pm.write_amp", "ratio"},
      {"pm.persists_per_write", "count"},
      {"pm.used_per_live_byte", "ratio"},
      {"sstable.read_frac", "ratio"},
      {"sstable.ssd_reads_per_get", "count"},
      {"sstable.blockcache_hit_ratio", "ratio"},
      {"sstable.bloom_negative_ratio", "ratio"},
      {"sstable.bloom_fp_ratio", "ratio"},
      {"env.fg_read_us_p50", "us"},
      {"env.fsyncs_per_write", "ratio"},
      {"env.ssd_busy_frac", "ratio"},
      {"env.ssd_queue_high_water", "count"},
      {"env.bg_io_ms", "ms"},
      {"compaction.flushes", "count"},
      {"compaction.internal_count", "count"},
      {"compaction.internal_dedupe_ratio", "ratio"},
      {"compaction.major_count", "count"},
      {"compaction.major_wall_ms", "ms"},
      {"compaction.major_ssd_bytes", "B"},
      {"compaction.sched_deduped", "count"},
      {"compaction.sched_failed", "count"},
      {"compaction.eq1_triggered", "count"},
      {"compaction.eq2_triggered", "count"},
      {"compaction.keep_set_selections", "count"},
      {"compaction.coro_resumes", "count"},
      {"compaction.to_level1_s", "s"},
      {"obs.trace_overhead_frac", "ratio", Agg::kProcess},
  };
  return defs;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::unique_ptr<ScrambledZipfian> zipf;
  if (spec->dist == KeyDist::kZipfian) {
    zipf = std::make_unique<ScrambledZipfian>(spec->keyspace, spec->zipf_theta);
  }
  // Threads inherit the timer slack of their creator. The SsdModel realises
  // a modelled latency by sleeping for all but its last 10 us; the default
  // 50 us slack would stretch every simulated I/O by a host-dependent amount.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // A fixed mmap threshold: glibc's adaptive one moves with the order in
  // which rounds free large buffers, and with it the peak RSS.
  mallopt(M_MMAP_THRESHOLD, 256 << 10);
  Tracer tracer;

  std::vector<RoundResult> rounds;
  double measured = 0;
  bool ok = true;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  while (rounds.size() < size_t(kMaxRounds)) {
    const int n = static_cast<int>(rounds.size());
    const int min_rounds = args.trace ? 2 * kMinRounds : kMinRounds;
    if (n >= min_rounds && measured >= args.seconds &&
        (!args.trace || n % 2 == 0)) {
      break;
    }
    const bool traced = args.trace && n % 2 == 1;
    const std::string pool = args.work_dir + "/pool.pm";
    RemovePool(pool, spec->shards);
    RoundResult r =
        RunRound(*spec, zipf.get(), args.seed, n, traced, &tracer, pool);
    RemovePool(pool, spec->shards);
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
    std::fprintf(stderr,
                 "round %d%s: %.2fs mix, %.0f ops/s, setup %.2fs, "
                 "%" PRIu64 " ops, %" PRIu64 " failed, %" PRIu64
                 " mismatches%s%s\n",
                 n, traced ? " (traced)" : "", r.mix_seconds,
                 r.m["ops_per_s"], r.m["setup_s"], r.attempted, r.failed,
                 r.mismatches, r.error.empty() ? "" : ": ",
                 r.error.c_str());
    if (!r.error.empty()) {
      ok = false;
      ++failed;
      break;
    }
    if (!traced) measured += r.mix_seconds;
    rounds.push_back(std::move(r));
  }
  const bool correct = ok && mismatches == 0;

  std::map<std::string, size_t> samples;  // pooled latency sample counts
  auto summarise = [&](const MetricDef& def, bool traced) {
    std::vector<RoundResult*> kept;
    for (auto& r : rounds) {
      if (r.traced == traced) kept.push_back(&r);
    }
    if (def.agg == Agg::kFastHalf || def.agg == Agg::kLatency) {
      std::vector<double> ops;
      for (auto* r : kept) ops.push_back(r->m["ops_per_s"]);
      std::vector<RoundResult*> fast;
      for (size_t i : FasterHalf(ops)) fast.push_back(kept[i]);
      kept = fast;
    }
    std::vector<double> v;
    for (auto* r : kept) {
      if (def.agg == Agg::kLatency) {
        const auto& lat = r->lat_us[static_cast<int>(def.op)];
        v.insert(v.end(), lat.begin(), lat.end());
      } else {
        v.push_back(r->m[def.name]);
      }
    }
    if (def.agg != Agg::kLatency) return Median(v);
    samples[def.name] = v.size();
    return Percentile(v, def.pct);
  };
  std::map<std::string, double> values;
  const auto& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& def : defs) values[def.name] = summarise(def, args.trace);
  if (args.trace) {
    const MetricDef ops{"ops_per_s", "1/s", Agg::kFastHalf};
    values["obs.trace_overhead_frac"] =
        1.0 - Ratio(summarise(ops, true), summarise(ops, false));
  } else {
    values["peak_rss_mb"] = PeakRssMb();
  }

  std::printf("workload %s seed %" PRIu64 " trace %d: %zu rounds, "
              "DB files in memory (MemEnv), sync_wal=false\n",
              spec->name.c_str(), args.seed, args.trace ? 1 : 0,
              rounds.size());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed + mismatches);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", values[def.name]);
    std::printf("  %-36s %16.4f %s", def.name, values[def.name], def.unit);
    if (def.agg == Agg::kLatency) std::printf(" (n=%zu)", samples[def.name]);
    std::printf("\n");
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(def.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + def.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
