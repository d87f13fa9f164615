// net_bench: multi-connection pipelined RESP load generator for
// pmblade_server.
//
// Sweeps a connections x pipeline-depth grid: every connection runs on its
// own thread, sends `depth` commands per window (SET/GET mix over a shared
// keyspace), then parses `depth` replies with the real RESP parser before
// sending the next window. Reports per-point throughput and p99 WINDOW
// round-trip latency (one window = depth pipelined commands), plus the
// "-BUSY" shed count so admission control is visible.
//
// With --shed a final phase hammers 100% SETs (same grid point as
// --shed_connections/--shed_pipeline) and reports the shed rate — run it
// against a server started with a tiny memtable and --shed_on_slowdown to
// see admission control engage.
//
// Emits --out (default BENCH_server_throughput.json):
//   [ {"phase":"grid","connections":C,"pipeline":P,"ops":N,
//      "ops_per_sec":T,"p99_window_us":L,"busy":B,"errors":E}, ...,
//     {"phase":"shed", ...} ]
//
// Exit: 0 = ran clean (shed replies are expected, not errors),
// 1 = connect/protocol failure, 2 = bad usage, 128+sig = interrupted
// (partial JSON written).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "benchutil/reporter.h"
#include "net/resp.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace {

using pmblade::Histogram;
using pmblade::net::RespParser;
using pmblade::net::RespValue;
namespace bench = pmblade::bench;

// Shard count of the server under test, from --shards. net_bench never
// opens the engine itself, so this is pure recorded metadata for the JSON
// (0 = not specified); it lets BENCH comparisons tell a 1-shard server run
// from a 4-shard one.
int g_shards = 0;

int Connect(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& buf) {
  size_t sent = 0;
  while (sent < buf.size()) {
    ssize_t n = write(fd, buf.data() + sent, buf.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

struct WorkerStats {
  Histogram window_nanos;
  uint64_t ops = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  bool failed = false;  // connect/protocol failure
};

/// One connection's share of a grid point: `ops` commands in windows of
/// `depth`. set_pct is the SET percentage (0-100).
void RunConnection(const std::string& host, int port, uint64_t ops,
                   int depth, int set_pct, uint64_t keys, size_t value_size,
                   uint64_t seed, WorkerStats* stats) {
  pmblade::Clock* clock = pmblade::SystemClock();
  int fd = Connect(host, port);
  if (fd < 0) {
    stats->failed = true;
    return;
  }
  const std::string value(value_size, 'v');
  RespParser parser;
  std::string request;
  char key[32];
  uint64_t state = seed * 2654435761u + 1;
  char buf[64 << 10];

  uint64_t done = 0;
  while (done < ops && !bench::InterruptRequested()) {
    const int window =
        static_cast<int>(std::min<uint64_t>(depth, ops - done));
    request.clear();
    for (int i = 0; i < window; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      snprintf(key, sizeof(key), "key:%llu",
               static_cast<unsigned long long>((state >> 33) % keys));
      const bool is_set =
          static_cast<int>((state >> 16) % 100) < set_pct;
      if (is_set) {
        pmblade::net::EncodeBulkStringArray({"SET", key, value}, &request);
      } else {
        pmblade::net::EncodeBulkStringArray({"GET", key}, &request);
      }
    }
    const uint64_t t0 = clock->NowNanos();
    if (!SendAll(fd, request)) {
      stats->failed = true;
      break;
    }
    int replies = 0;
    RespValue reply;
    while (replies < window) {
      RespParser::Result r = parser.Next(&reply);
      if (r == RespParser::Result::kValue) {
        ++replies;
        if (reply.type == RespValue::Type::kError) {
          if (reply.str.compare(0, 4, "BUSY") == 0) {
            ++stats->busy;
          } else {
            ++stats->errors;
          }
        }
        continue;
      }
      if (r == RespParser::Result::kError) {
        stats->failed = true;
        break;
      }
      ssize_t n = read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        stats->failed = true;
        break;
      }
      parser.Feed(buf, static_cast<size_t>(n));
    }
    if (stats->failed) break;
    stats->window_nanos.Add(clock->NowNanos() - t0);
    done += static_cast<uint64_t>(window);
  }
  stats->ops = done;
  close(fd);
}

/// One grid point: `connections` threads share `total_ops`. Prints the
/// point's line, appends its JSON row and sums the connections' stats into
/// `total` (failed = a connect or protocol failure).
void RunPoint(const std::string& phase, const std::string& host, int port,
              int connections, int depth, uint64_t total_ops, int set_pct,
              uint64_t keys, size_t value_size, WorkerStats* total,
              std::vector<bench::JsonObject>* rows) {
  pmblade::Clock* clock = pmblade::SystemClock();
  std::vector<WorkerStats> stats(connections);
  std::vector<std::thread> threads;
  const uint64_t per_conn = total_ops / connections;

  const uint64_t start = clock->NowNanos();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(RunConnection, host, port, per_conn, depth,
                         set_pct, keys, value_size,
                         static_cast<uint64_t>(c + 1), &stats[c]);
  }
  for (auto& t : threads) t.join();
  const uint64_t nanos = clock->NowNanos() - start;

  for (const WorkerStats& s : stats) {
    total->ops += s.ops;
    total->busy += s.busy;
    total->errors += s.errors;
    total->window_nanos.Merge(s.window_nanos);
    total->failed |= s.failed;
  }
  const double ops_per_sec = nanos > 0 ? total->ops * 1e9 / nanos : 0;
  const double p99_window_us = total->window_nanos.Percentile(99) / 1000.0;

  printf("%-5s conns=%-3d depth=%-3d : %10.0f ops/sec; p99 window %8.1f us;"
         " busy %llu; errors %llu%s\n",
         phase.c_str(), connections, depth, ops_per_sec, p99_window_us,
         static_cast<unsigned long long>(total->busy),
         static_cast<unsigned long long>(total->errors),
         total->failed ? "  [FAILED]" : "");
  fflush(stdout);
  rows->push_back(bench::JsonObject()
                      .Str("phase", phase)
                      .Int("shards", g_shards)
                      .Int("connections", connections)
                      .Int("pipeline", depth)
                      .Int("ops", total->ops)
                      .Num("ops_per_sec", ops_per_sec, 0)
                      .Num("p99_window_us", p99_window_us, 2)
                      .Int("busy", total->busy)
                      .Int("errors", total->errors));
}

void Usage() {
  fprintf(stderr,
          "usage: net_bench --port=N [options]\n"
          "  --host=ADDR           server address (default 127.0.0.1)\n"
          "  --connections=LIST    e.g. 1,8,32 (default 1,4,16)\n"
          "  --pipeline=LIST       e.g. 1,16 (default 1,16)\n"
          "  --ops=N               commands per grid point (default "
          "50000)\n"
          "  --keys=N              keyspace size (default 10000)\n"
          "  --value_size=B        SET value bytes (default 64)\n"
          "  --set_pct=N           SET share of the mix, 0-100 (default "
          "50)\n"
          "  --shed                add a 100%%-SET shed-rate phase\n"
          "  --shed_connections=N  shed phase connections (default 4)\n"
          "  --shed_pipeline=N     shed phase depth (default 16)\n"
          "  --shed_ops=N          shed phase commands (default --ops)\n"
          "  --shards=N            shard count of the server under test,\n"
          "                        recorded in the JSON (metadata only)\n"
          "  --out=PATH            JSON output (default "
          "BENCH_server_throughput.json)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool unknown = flags.ReportUnknown(
      {"host", "port", "connections", "pipeline", "ops", "keys",
       "value_size", "set_pct", "shed", "shed_connections", "shed_pipeline",
       "shed_ops", "shards", "out"});
  if (unknown || !flags.positional().empty() || !flags.Has("port")) {
    if (!flags.Has("port")) fprintf(stderr, "--port=N is required\n");
    Usage();
    return 2;
  }

  const std::string host = flags.Str("host", "127.0.0.1");
  const int port = static_cast<int>(flags.Int("port", 6399));
  const std::vector<int64_t> connections =
      flags.IntList("connections", {1, 4, 16});
  const std::vector<int64_t> pipeline = flags.IntList("pipeline", {1, 16});
  const uint64_t ops = static_cast<uint64_t>(flags.Int("ops", 50000));
  const uint64_t keys = static_cast<uint64_t>(flags.Int("keys", 10000));
  const size_t value_size =
      static_cast<size_t>(flags.Int("value_size", 64));
  const int set_pct = static_cast<int>(flags.Int("set_pct", 50));
  g_shards = static_cast<int>(flags.Int("shards", 0));

  bench::InstallInterruptHandler();

  printf("net_bench: %s:%d ops/point=%llu keys=%llu value=%zuB set=%d%%\n",
         host.c_str(), port, static_cast<unsigned long long>(ops),
         static_cast<unsigned long long>(keys), value_size, set_pct);

  bool ok = true;
  std::vector<bench::JsonObject> rows;
  for (int64_t conns : connections) {
    for (int64_t depth : pipeline) {
      if (conns < 1 || depth < 1) continue;
      if (bench::InterruptRequested()) break;
      WorkerStats total;
      RunPoint("grid", host, port, static_cast<int>(conns),
               static_cast<int>(depth), ops, set_pct, keys, value_size,
               &total, &rows);
      ok &= !total.failed;
    }
  }

  if (flags.Bool("shed", false) && !bench::InterruptRequested()) {
    WorkerStats total;
    RunPoint("shed", host, port,
             static_cast<int>(flags.Int("shed_connections", 4)),
             static_cast<int>(flags.Int("shed_pipeline", 16)),
             static_cast<uint64_t>(
                 flags.Int("shed_ops", static_cast<int64_t>(ops))),
             /*set_pct=*/100, keys, value_size, &total, &rows);
    ok &= !total.failed;
    const double shed_rate =
        total.ops > 0 ? static_cast<double>(total.busy) / total.ops : 0;
    printf("shed phase: %.1f%% of commands shed with -BUSY\n",
           shed_rate * 100.0);
  }

  bench::WriteTextFile(flags.Str("out", "BENCH_server_throughput.json"),
                       bench::JsonRows(rows));
  if (bench::InterruptRequested()) {
    printf("net_bench: interrupted by signal %d, partial JSON written\n",
           bench::InterruptSignal());
    return 128 + bench::InterruptSignal();
  }
  return ok ? 0 : 1;
}
