// pmblade_server: RESP daemon over a pmblade::DB (see src/net/).
//
// Usage:
//   pmblade_server --db=PATH [--host=127.0.0.1] [--port=6399] [--workers=2]
//                  [--memtable_bytes=N] [--layout=pm|ssd] [--shards=N]
//                  [--sync_wal] [--shed_on_slowdown]
//                  [--slowdown_watermark=0.875] [--max_output_mb=4]
//                  [--port_file=PATH] [--quiet]
//
// Binds (port 0 = ephemeral; the bound port is printed on the "ready" line
// and written to --port_file for scripts), serves until SIGINT/SIGTERM or a
// client SHUTDOWN, then drains gracefully: stop accepting, finish commands
// already received, flush replies, close, flush the memtable, close the DB.
// Every acknowledged write is WAL-durable, so a drained shutdown loses
// nothing.
//
// Exit status: 0 = clean shutdown, 1 = open/bind failure, 2 = bad usage.

#include <cstdio>
#include <memory>
#include <string>

#include "benchutil/flags.h"
#include "benchutil/interrupt.h"
#include "core/db.h"
#include "net/server.h"

namespace {

pmblade::net::Server* g_server = nullptr;

// Async-signal-safe: RequestShutdown is an atomic store + eventfd write.
void OnSignal() {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void Usage() {
  fprintf(stderr,
          "usage: pmblade_server --db=PATH [options]\n"
          "  --host=ADDR            listen address (default 127.0.0.1)\n"
          "  --port=N               listen port, 0 = ephemeral (default "
          "6399)\n"
          "  --workers=N            epoll worker threads (default 2)\n"
          "  --memtable_bytes=N     engine memtable size (default 4 MiB)\n"
          "  --layout=pm|ssd        level-0 layout (default pm)\n"
          "  --shards=N             hash-partitioned engine shards, each\n"
          "                         with its own WAL/memtable/compaction\n"
          "                         (default 1; a DB dir is pinned to its\n"
          "                         creation-time shard count)\n"
          "  --sync_wal             fsync the WAL on every write group\n"
          "  --shed_on_slowdown     shed writes at the slowdown watermark,\n"
          "                         not only at a full stall\n"
          "  --slowdown_watermark=F memtable fraction that starts write\n"
          "                         slowdown (default 0.875)\n"
          "  --max_output_mb=N      per-connection reply backlog cap "
          "(default 4)\n"
          "  --port_file=PATH       write the bound port here (for "
          "scripts)\n"
          "  --quiet                no server logging to stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = pmblade::bench;
  namespace net = pmblade::net;

  bench::Flags flags(argc, argv);
  const bool unknown = flags.ReportUnknown(
      {"db", "host", "port", "workers", "memtable_bytes", "layout", "shards",
       "sync_wal", "shed_on_slowdown", "slowdown_watermark", "max_output_mb",
       "port_file", "quiet"});
  if (unknown || !flags.positional().empty() || !flags.Has("db")) {
    if (!flags.Has("db")) fprintf(stderr, "--db=PATH is required\n");
    Usage();
    return 2;
  }

  pmblade::Options options;
  options.memtable_bytes =
      static_cast<size_t>(flags.Int("memtable_bytes", 4 << 20));
  options.sync_wal = flags.Bool("sync_wal", false);
  options.write_slowdown_watermark =
      flags.Double("slowdown_watermark", options.write_slowdown_watermark);
  options.l0_layout = flags.Str("layout", "pm") == "ssd"
                          ? pmblade::L0Layout::kSstable
                          : pmblade::L0Layout::kPmTable;
  options.num_shards = static_cast<uint32_t>(flags.Int("shards", 1));
  pmblade::Logger* logger = flags.Bool("quiet", false)
                                ? pmblade::NullLogger()
                                : pmblade::StderrLogger();
  options.logger = logger;

  const std::string dbname = flags.Str("db", "");
  std::unique_ptr<pmblade::DB> db;
  pmblade::Status s = pmblade::DB::Open(options, dbname, &db);
  if (!s.ok()) {
    fprintf(stderr, "open %s: %s\n", dbname.c_str(), s.ToString().c_str());
    return 1;
  }

  net::ServerOptions sopts;
  sopts.host = flags.Str("host", "127.0.0.1");
  sopts.port = static_cast<int>(flags.Int("port", 6399));
  sopts.num_workers = static_cast<int>(flags.Int("workers", 2));
  sopts.max_output_buffer_bytes =
      static_cast<size_t>(flags.Int("max_output_mb", 4)) << 20;
  sopts.handler.shed_on_slowdown = flags.Bool("shed_on_slowdown", false);
  sopts.logger = logger;

  net::Server server(sopts, db.get());
  s = server.Start();
  if (!s.ok()) {
    fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  const std::string port_file = flags.Str("port_file", "");
  if (!port_file.empty()) {
    FILE* f = fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      fprintf(f, "%d\n", server.port());
      fclose(f);
    }
  }
  printf("pmblade_server: ready on %s:%d (db=%s, %d workers, %u shards)\n",
         sopts.host.c_str(), server.port(), dbname.c_str(),
         sopts.num_workers, db->num_shards());
  fflush(stdout);

  g_server = &server;
  bench::InstallInterruptHandler(&OnSignal);

  server.WaitForShutdownRequest();
  printf("pmblade_server: shutting down (%s)\n",
         bench::InterruptRequested() ? "signal" : "SHUTDOWN command");
  fflush(stdout);
  server.Stop();
  g_server = nullptr;
  db.reset();
  printf("pmblade_server: bye\n");
  return 0;
}
