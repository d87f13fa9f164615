// Server: the RESP network front-end of a pmblade::DB.
//
// Threading model
//   * One acceptor thread owns the listening socket: it accepts, sets
//     TCP_NODELAY, and hands each connection to a worker round-robin.
//   * N worker threads each run a private epoll loop over their share of
//     the connections: read -> incremental RESP parse (pipelining falls out
//     naturally — every complete frame in the buffer is dispatched before
//     the next epoll_wait) -> CommandHandler -> buffered write. Replies to
//     one connection are therefore strictly ordered by request order.
//   * Pre-block poll: after a loop pass that served a command, the worker
//     polls epoll_wait(..., 0) for up to 25 us before it blocks, since the
//     wake-up of a blocked epoll_wait is most of a small request's server
//     cost and a busy connection's next request usually lands within that
//     window. A poll that finds nothing disarms polling until the next
//     served command, so an idle server never spins. If the thread was
//     preempted during a poll (its involuntary context switches rose),
//     another thread wanted the CPU, and polling holds off for 2 ms. A
//     worker whose affinity allows one CPU only never polls. The rule uses
//     only what the worker itself observes; there is no knob.
//     "pmblade.server.poll_{nanos,hits,misses,backoffs}" show the CPU it
//     burns and how often it pays.
//   * Engine calls run ON the worker thread and may block (group commit
//     sleeps in slowdown/stall). That is deliberate — the engine's
//     backpressure must reach the client — but bounded: admission control
//     sheds write commands with "-BUSY" while the engine reports
//     WritePressure::kStall (see CommandHandlerOptions), so a stalled
//     engine degrades into fast rejections instead of a convoy of blocked
//     workers.
//
// Flow control
//   * Per-connection output cap: when a client pipelines faster than it
//     reads replies and its output buffer passes
//     ServerOptions::max_output_buffer_bytes, the worker STOPS READING that
//     socket (EPOLLIN off, "pmblade.server.read_pauses") until the buffer
//     half-drains. Slow consumers throttle themselves, not the server.
//
// Shutdown
//   * Stop() drains gracefully: stop accepting, execute every command
//     already received, flush all reply buffers (bounded by
//     drain_timeout_millis), close, then FlushMemTable() so the final
//     memtable reaches level-0. Every acknowledged write is durable at the
//     engine's WAL the moment its reply is queued, so a drained shutdown
//     never loses an acked write.
//   * SHUTDOWN (the command) and signal handlers funnel through
//     RequestShutdown(), which is async-signal-safe; the embedding program
//     observes it via WaitForShutdownRequest() and calls Stop().
//
// All instruments live under "pmblade.server.*" in the DB's own metrics
// registry, so "pmblade.stats.json"/"pmblade.stats.prometheus" and INFO
// expose engine and server state in one snapshot.

#ifndef PMBLADE_NET_SERVER_H_
#define PMBLADE_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "net/commands.h"
#include "net/resp.h"
#include "util/logging.h"

namespace pmblade {
namespace net {

struct ServerOptions {
  /// Listen address. port 0 binds an ephemeral port; Server::port() reports
  /// the actual one (tests and the smoke job use this).
  std::string host = "127.0.0.1";
  int port = 6399;
  int num_workers = 2;
  int listen_backlog = 128;

  /// Per-connection reply backlog above which the worker stops reading the
  /// socket until the client catches up.
  size_t max_output_buffer_bytes = 4 << 20;
  /// Read syscall chunk size.
  size_t read_chunk_bytes = 64 << 10;

  RespParser::Limits parser_limits;
  CommandHandlerOptions handler;

  /// Graceful-drain bound: connections whose replies cannot be flushed
  /// within this budget are closed anyway.
  uint64_t drain_timeout_millis = 5000;
  /// Flush the memtable at the end of Stop() so a follow-up Open replays no
  /// WAL (purely an optimization — the WAL already covers acked writes).
  bool flush_on_drain = true;

  /// Registry for "pmblade.server.*"; defaults to db->metrics_registry().
  obs::MetricsRegistry* metrics = nullptr;
  Logger* logger = nullptr;  // defaults to NullLogger()
  Clock* clock = nullptr;    // defaults to SystemClock()
};

class Server {
 public:
  Server(const ServerOptions& options, DB* db);
  ~Server();  // Stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers. Returns
  /// InvalidArgument/IOError on bad addresses or socket failures.
  Status Start();

  /// Graceful drain (see file comment). Idempotent; safe to call whether or
  /// not Start() succeeded. Must NOT be called from a worker thread — use
  /// RequestShutdown() there.
  void Stop();

  /// Flags a shutdown request and wakes WaitForShutdownRequest(). Safe from
  /// signal handlers and worker threads.
  void RequestShutdown();
  /// Blocks until RequestShutdown() (SHUTDOWN command, signal, or test)
  /// fires. Returns immediately if already requested.
  void WaitForShutdownRequest();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after Start with port 0).
  int port() const { return port_; }

  const ServerMetrics& metrics() const { return metrics_; }

 private:
  class Worker;
  friend class Worker;

  void AcceptLoop();

  ServerOptions options_;
  DB* db_;
  Logger* logger_;
  Clock* clock_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;    // eventfd: wakes the acceptor to exit
  int shutdown_event_fd_ = -1; // eventfd: RequestShutdown -> Wait...
  int port_ = 0;

  ServerMetrics metrics_;
  std::unique_ptr<CommandHandler> handler_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread accept_thread_;
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<uint64_t> next_worker_{0};
};

}  // namespace net
}  // namespace pmblade

#endif  // PMBLADE_NET_SERVER_H_
