// Command dispatch: maps parsed RESP commands onto the pmblade::DB API.
//
// One CommandHandler is shared by every server worker thread; it is
// stateless apart from cached metric instruments (lock-free counters), so
// concurrent Execute() calls are safe — the DB itself serializes what needs
// serializing (group commit, snapshots). Per-connection state (the SCAN
// walk's pinned snapshot) lives in a CommandHandler::Session owned by the
// connection, which the server releases on teardown so abandoned cursors
// never leak snapshot handles.
//
// Supported commands (RESP2, case-insensitive):
//   PING [msg] | ECHO msg                 liveness
//   GET k | MGET k...                     point reads
//   SET k v | MSET k v [k v ...]          writes (MSET is one atomic
//                                         WriteBatch through group commit)
//   DEL k... | EXISTS k...                deletes / existence probes
//   SCAN cursor [MATCH glob] [COUNT n]    cursor-paged keyspace walk over
//                                         DB::NewIterator (a session-held
//                                         walk pins one engine snapshot
//                                         from cursor "0" until the walk
//                                         finishes; sessionless calls read
//                                         each page independently)
//   DBSIZE                                full key count (O(n) scan)
//   INFO [server|engine]                  exposition built straight from
//                                         the metrics registry snapshot
//   COMMAND [...]                         stub (client handshake compat)
//   SELECT n | QUIT | SHUTDOWN            session control
//
// Admission control: write commands consult the engine's WritePressure
// before dispatching. At kStall (and, when configured, kSlowdown) the
// command is shed with "-BUSY ..." instead of tying a worker thread up
// inside DB::Write — the client is expected to back off and retry. The
// probe is keyed: on a sharded engine each write is judged by the pressure
// of the shard(s) it actually routes to (the worst one for MSET/DEL), so a
// stalled shard never sheds traffic bound for idle shards.

#ifndef PMBLADE_NET_COMMANDS_H_
#define PMBLADE_NET_COMMANDS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/db.h"
#include "net/resp.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace pmblade {
namespace net {

/// The server's instruments, registered under "pmblade.server.*" in the
/// engine's MetricsRegistry so the existing JSON/Prometheus exporters (and
/// INFO) surface them with everything else.
struct ServerMetrics {
  void Register(obs::MetricsRegistry* registry);

  obs::Counter* connections_accepted = nullptr;
  obs::Counter* connections_closed = nullptr;
  obs::Gauge* connections_active = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* commands = nullptr;       // every dispatched command
  obs::Counter* error_replies = nullptr;  // EVERY "-..." reply sent, exactly
                                          // once each (-ERR, -BUSY, protocol
                                          // errors included)
  obs::Counter* parse_errors = nullptr;   // protocol violations (fatal to
                                          // their connection); these replies
                                          // also count in error_replies
  obs::Counter* sheds = nullptr;          // commands rejected by admission
  obs::Counter* read_pauses = nullptr;    // output-cap backpressure events
  obs::Gauge* output_backlog = nullptr;   // bytes queued to clients
  obs::HistogramMetric* command_nanos = nullptr;
  // Workers' pre-block polls (see server.h "Threading model").
  obs::Counter* poll_nanos = nullptr;     // wall time spent polling
  obs::Counter* poll_hits = nullptr;      // polls that found an event
  obs::Counter* poll_misses = nullptr;    // polls that timed out empty
  obs::Counter* poll_backoffs = nullptr;  // polls that were preempted

  // Per-command counters, indexed by CommandId.
  std::vector<obs::Counter*> per_command;
};

enum class CommandId {
  kGet = 0,
  kSet,
  kDel,
  kMGet,
  kMSet,
  kExists,
  kScan,
  kDbSize,
  kPing,
  kEcho,
  kInfo,
  kCommand,
  kSelect,
  kQuit,
  kShutdown,
  kUnknown,  // must stay last
};

const char* CommandName(CommandId id);

struct CommandHandlerOptions {
  /// Shed write commands at kSlowdown too (default only at kStall).
  bool shed_on_slowdown = false;
  /// SCAN page size when the client sends no COUNT, and its upper bound.
  int scan_default_count = 10;
  int scan_max_count = 1000;
  /// Keyed admission probe; defaults to db->GetWritePressure(key) (the
  /// routed shard's pressure on a sharded engine, the global pressure on a
  /// single-shard one). Tests inject a fixed-pressure probe to pin shed
  /// behavior without a real stall.
  std::function<WritePressure(const Slice& key)> pressure_probe;
};

class CommandHandler {
 public:
  CommandHandler(DB* db, const CommandHandlerOptions& options,
                 ServerMetrics* metrics, Clock* clock);

  struct Result {
    bool close_connection = false;  // QUIT / SHUTDOWN
    bool shutdown_server = false;   // SHUTDOWN
  };

  /// Per-connection command state. A SCAN walk started with cursor "0"
  /// pins one engine snapshot here so every page of the walk reads the
  /// same point-in-time view (on a sharded engine: consistent across
  /// shards). The snapshot is released when the walk returns cursor "0",
  /// when a new walk starts, when the client presents a cursor that does
  /// not match the pinned walk, and — the leak backstop — when the server
  /// tears the connection down (Release() from Worker::Close and the
  /// destructor).
  class Session {
   public:
    Session() = default;
    ~Session() { Release(); }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    Session(Session&& other) noexcept { *this = std::move(other); }
    Session& operator=(Session&& other) noexcept {
      if (this != &other) {
        Release();
        db_ = other.db_;
        snapshot_ = other.snapshot_;
        has_snapshot_ = other.has_snapshot_;
        expected_cursor_ = std::move(other.expected_cursor_);
        other.db_ = nullptr;
        other.has_snapshot_ = false;
      }
      return *this;
    }

    /// Releases the pinned snapshot (if any). Safe to call repeatedly.
    void Release() {
      if (has_snapshot_ && db_ != nullptr) db_->ReleaseSnapshot(snapshot_);
      has_snapshot_ = false;
      db_ = nullptr;
      expected_cursor_.clear();
    }

    bool has_snapshot() const { return has_snapshot_; }

   private:
    friend class CommandHandler;
    DB* db_ = nullptr;
    uint64_t snapshot_ = 0;
    bool has_snapshot_ = false;
    /// The cursor we handed the client for the next page; a SCAN with any
    /// other cursor is treated as a new, unrelated walk.
    std::string expected_cursor_;
  };

  /// Dispatches one parsed command, appending exactly one reply to *out
  /// (except SHUTDOWN, which sends nothing — matching Redis — and empty
  /// inline lines, which are ignored). `command` must be an array; anything
  /// else is answered with a protocol error and close_connection.
  /// `session` may be nullptr (stateless: SCAN pages each read their own
  /// snapshot, as before sessions existed).
  Result Execute(const RespValue& command, Session* session,
                 std::string* out);
  Result Execute(const RespValue& command, std::string* out) {
    return Execute(command, nullptr, out);
  }

  /// Extra "key:value" lines prepended to INFO's "# Server" section
  /// (listen address, worker count — filled in by the server).
  void AddInfoLine(const std::string& key, const std::string& value);

 private:
  Result DoExecute(const std::vector<const std::string*>& args,
                   Session* session, std::string* out);
  void Info(const std::vector<const std::string*>& args, std::string* out);
  void Scan(const std::vector<const std::string*>& args, Session* session,
            std::string* out);
  /// True when the command may proceed; false = shed (reply appended).
  /// Probes every key the write touches and sheds on the WORST pressure,
  /// so a multi-shard MSET/DEL is admitted only when every target shard
  /// can absorb it.
  bool AdmitWrite(const std::vector<const std::string*>& keys,
                  std::string* out);
  void WrongArity(const std::string& name, std::string* out);
  /// +OK; -BUSY for an engine Busy; -ERR for any other failure.
  void ReplyStatus(const Status& status, std::string* out);
  /// The single funnel for "-..." replies: bumps error_replies exactly
  /// once, then encodes. Every error path — engine errors, arity, syntax,
  /// sheds, protocol violations — goes through here so the counter is an
  /// exact census of error replies sent.
  void ReplyError(const std::string& msg, std::string* out);

  DB* db_;
  CommandHandlerOptions options_;
  ServerMetrics* metrics_;
  Clock* clock_;
  std::vector<std::pair<std::string, std::string>> info_lines_;
};

}  // namespace net
}  // namespace pmblade

#endif  // PMBLADE_NET_COMMANDS_H_
