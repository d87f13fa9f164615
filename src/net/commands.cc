#include "net/commands.h"

#include <algorithm>
#include <cctype>

#include "memtable/write_batch.h"

namespace pmblade {
namespace net {

namespace {

const char* kCommandNames[] = {
    "get",  "set",  "del",     "mget",   "mset", "exists",
    "scan", "dbsize", "ping",  "echo",   "info", "command",
    "select", "quit", "shutdown", "unknown",
};

std::string ToLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

CommandId LookupCommand(const std::string& lower_name) {
  for (size_t i = 0; i < static_cast<size_t>(CommandId::kUnknown); ++i) {
    if (lower_name == kCommandNames[i]) return static_cast<CommandId>(i);
  }
  return CommandId::kUnknown;
}

}  // namespace

const char* CommandName(CommandId id) {
  return kCommandNames[static_cast<size_t>(id)];
}

void ServerMetrics::Register(obs::MetricsRegistry* registry) {
  connections_accepted =
      registry->GetCounter("pmblade.server.connections_accepted");
  connections_closed =
      registry->GetCounter("pmblade.server.connections_closed");
  connections_active = registry->GetGauge("pmblade.server.connections");
  bytes_in = registry->GetCounter("pmblade.server.bytes_in");
  bytes_out = registry->GetCounter("pmblade.server.bytes_out");
  commands = registry->GetCounter("pmblade.server.commands");
  error_replies = registry->GetCounter("pmblade.server.error_replies");
  parse_errors = registry->GetCounter("pmblade.server.parse_errors");
  sheds = registry->GetCounter("pmblade.server.sheds");
  read_pauses = registry->GetCounter("pmblade.server.read_pauses");
  output_backlog = registry->GetGauge("pmblade.server.output_backlog_bytes");
  command_nanos = registry->GetHistogram("pmblade.server.command_nanos");
  poll_nanos = registry->GetCounter("pmblade.server.poll_nanos");
  poll_hits = registry->GetCounter("pmblade.server.poll_hits");
  poll_misses = registry->GetCounter("pmblade.server.poll_misses");
  poll_backoffs = registry->GetCounter("pmblade.server.poll_backoffs");
  per_command.resize(static_cast<size_t>(CommandId::kUnknown) + 1);
  for (size_t i = 0; i < per_command.size(); ++i) {
    per_command[i] = registry->GetCounter(
        std::string("pmblade.server.cmd.") +
        kCommandNames[i]);
  }
}

CommandHandler::CommandHandler(DB* db, const CommandHandlerOptions& options,
                               ServerMetrics* metrics, Clock* clock)
    : db_(db), options_(options), metrics_(metrics), clock_(clock) {
  if (!options_.pressure_probe) {
    options_.pressure_probe = [db](const Slice& key) {
      return db->GetWritePressure(key);
    };
  }
  if (options_.scan_default_count < 1) options_.scan_default_count = 1;
  if (options_.scan_max_count < options_.scan_default_count) {
    options_.scan_max_count = options_.scan_default_count;
  }
}

void CommandHandler::AddInfoLine(const std::string& key,
                                 const std::string& value) {
  info_lines_.emplace_back(key, value);
}

void CommandHandler::ReplyError(const std::string& msg, std::string* out) {
  metrics_->error_replies->Inc();
  EncodeError(msg, out);
}

void CommandHandler::WrongArity(const std::string& name, std::string* out) {
  ReplyError("ERR wrong number of arguments for '" + name + "' command",
             out);
}

void CommandHandler::ReplyStatus(const Status& status, std::string* out) {
  if (status.ok()) {
    EncodeSimpleString("OK", out);
  } else if (status.IsBusy()) {
    // E.g. no PM left for the log: retryable, like an admission shed.
    ReplyError("BUSY " + status.message() + "; retry later", out);
  } else {
    ReplyError("ERR " + status.ToString(), out);
  }
}

bool CommandHandler::AdmitWrite(const std::vector<const std::string*>& keys,
                                std::string* out) {
  WritePressure pressure = WritePressure::kNone;
  for (const std::string* key : keys) {
    const WritePressure p = options_.pressure_probe(*key);
    if (static_cast<int>(p) > static_cast<int>(pressure)) pressure = p;
    if (pressure == WritePressure::kStall) break;
  }
  const bool shed =
      pressure == WritePressure::kStall ||
      (options_.shed_on_slowdown && pressure == WritePressure::kSlowdown);
  if (!shed) return true;
  metrics_->sheds->Inc();
  ReplyError(std::string("BUSY engine write pressure: ") +
                 WritePressureName(pressure) + "; retry later",
             out);
  return false;
}

CommandHandler::Result CommandHandler::Execute(const RespValue& command,
                                               Session* session,
                                               std::string* out) {
  Result result;
  if (command.type != RespValue::Type::kArray) {
    metrics_->parse_errors->Inc();
    ReplyError("ERR Protocol error: expected command array", out);
    result.close_connection = true;
    return result;
  }
  if (command.array.empty()) return result;  // stray inline newline
  // Commands are arrays of bulk strings; inline commands parse to the same
  // shape. Anything else in an argument position is a protocol error.
  std::vector<const std::string*> args;
  args.reserve(command.array.size());
  for (const RespValue& element : command.array) {
    if (element.type != RespValue::Type::kBulkString &&
        element.type != RespValue::Type::kSimpleString) {
      metrics_->parse_errors->Inc();
      ReplyError("ERR Protocol error: command arguments must be bulk "
                 "strings",
                 out);
      result.close_connection = true;
      return result;
    }
    args.push_back(&element.str);
  }

  const uint64_t start = clock_->NowNanos();
  result = DoExecute(args, session, out);
  metrics_->command_nanos->Observe(clock_->NowNanos() - start);
  return result;
}

CommandHandler::Result CommandHandler::DoExecute(
    const std::vector<const std::string*>& args, Session* session,
    std::string* out) {
  Result result;
  const std::string name = ToLower(*args[0]);
  const CommandId id = LookupCommand(name);
  metrics_->commands->Inc();
  metrics_->per_command[static_cast<size_t>(id)]->Inc();

  switch (id) {
    case CommandId::kPing:
      if (args.size() == 1) {
        EncodeSimpleString("PONG", out);
      } else if (args.size() == 2) {
        EncodeBulkString(*args[1], out);
      } else {
        WrongArity(name, out);
      }
      return result;

    case CommandId::kEcho:
      if (args.size() != 2) {
        WrongArity(name, out);
      } else {
        EncodeBulkString(*args[1], out);
      }
      return result;

    case CommandId::kGet: {
      if (args.size() != 2) {
        WrongArity(name, out);
        return result;
      }
      std::string value;
      Status s = db_->Get(ReadOptions(), *args[1], &value);
      if (s.ok()) {
        EncodeBulkString(value, out);
      } else if (s.IsNotFound()) {
        EncodeNullBulkString(out);
      } else {
        ReplyError("ERR " + s.ToString(), out);
      }
      return result;
    }

    case CommandId::kSet: {
      if (args.size() != 3) {
        WrongArity(name, out);
        return result;
      }
      if (!AdmitWrite({args[1]}, out)) return result;
      ReplyStatus(db_->Put(WriteOptions(), *args[1], *args[2]), out);
      return result;
    }

    case CommandId::kMSet: {
      if (args.size() < 3 || args.size() % 2 != 1) {
        WrongArity(name, out);
        return result;
      }
      std::vector<const std::string*> keys;
      for (size_t i = 1; i + 1 < args.size(); i += 2) keys.push_back(args[i]);
      if (!AdmitWrite(keys, out)) return result;
      WriteBatch batch;
      for (size_t i = 1; i + 1 < args.size(); i += 2) {
        batch.Put(*args[i], *args[i + 1]);
      }
      ReplyStatus(db_->Write(WriteOptions(), &batch), out);
      return result;
    }

    case CommandId::kDel: {
      if (args.size() < 2) {
        WrongArity(name, out);
        return result;
      }
      if (!AdmitWrite({args.begin() + 1, args.end()}, out)) return result;
      // Redis reports how many keys actually existed; probe first, then
      // delete everything in one atomic batch through group commit.
      int64_t removed = 0;
      WriteBatch batch;
      for (size_t i = 1; i < args.size(); ++i) {
        std::string value;
        if (db_->Get(ReadOptions(), *args[i], &value).ok()) ++removed;
        batch.Delete(*args[i]);
      }
      Status s = db_->Write(WriteOptions(), &batch);
      if (s.ok()) {
        EncodeInteger(removed, out);
      } else {
        ReplyStatus(s, out);
      }
      return result;
    }

    case CommandId::kExists: {
      if (args.size() < 2) {
        WrongArity(name, out);
        return result;
      }
      int64_t found = 0;
      for (size_t i = 1; i < args.size(); ++i) {
        std::string value;
        if (db_->Get(ReadOptions(), *args[i], &value).ok()) ++found;
      }
      EncodeInteger(found, out);
      return result;
    }

    case CommandId::kMGet: {
      if (args.size() < 2) {
        WrongArity(name, out);
        return result;
      }
      EncodeArrayHeader(args.size() - 1, out);
      for (size_t i = 1; i < args.size(); ++i) {
        std::string value;
        Status s = db_->Get(ReadOptions(), *args[i], &value);
        if (s.ok()) {
          EncodeBulkString(value, out);
        } else {
          EncodeNullBulkString(out);  // including read errors: per-key null
        }
      }
      return result;
    }

    case CommandId::kScan:
      Scan(args, session, out);
      return result;

    case CommandId::kDbSize: {
      if (args.size() != 1) {
        WrongArity(name, out);
        return result;
      }
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      int64_t count = 0;
      for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
      if (!it->status().ok()) {
        ReplyError("ERR " + it->status().ToString(), out);
      } else {
        EncodeInteger(count, out);
      }
      return result;
    }

    case CommandId::kInfo:
      Info(args, out);
      return result;

    case CommandId::kCommand:
      // redis-cli sends COMMAND (or COMMAND DOCS) on connect; an empty
      // array keeps it happy without maintaining a command table.
      EncodeArrayHeader(0, out);
      return result;

    case CommandId::kSelect:
      // Single keyspace; accept any index for client compatibility.
      if (args.size() != 2) {
        WrongArity(name, out);
      } else {
        EncodeSimpleString("OK", out);
      }
      return result;

    case CommandId::kQuit:
      EncodeSimpleString("OK", out);
      result.close_connection = true;
      return result;

    case CommandId::kShutdown:
      // Matches Redis: a successful SHUTDOWN sends no reply; the connection
      // just closes as the server drains.
      result.close_connection = true;
      result.shutdown_server = true;
      return result;

    case CommandId::kUnknown:
      break;
  }

  ReplyError("ERR unknown command '" + *args[0] + "'", out);
  return result;
}

// SCAN cursor [MATCH glob] [COUNT n]
//
// Open an iterator, seek to the cursor, walk up to COUNT live keys. The
// returned cursor is the last key visited plus a NUL byte — the
// exclusive-successor key — so the next page resumes exactly where this
// one stopped regardless of concurrent writers, flushes or compactions in
// between (keys are totally ordered; a key can never move). Cursor "0"
// starts a walk, and "0" comes back when done. Like Redis, COUNT bounds
// keys *scanned*, so a MATCH page may return fewer (even zero) keys while
// the cursor still advances.
//
// With a session, cursor "0" pins one engine snapshot and every page of
// the walk reads that same point-in-time view; the pin is dropped when
// the walk completes, when a new walk starts, or when the cursor does not
// match the one we handed out (that page — and the rest of that foreign
// walk — reads latest, like the sessionless path). Without a session each
// page is an independent latest-snapshot read.
void CommandHandler::Scan(const std::vector<const std::string*>& args,
                          Session* session, std::string* out) {
  if (args.size() < 2) {
    WrongArity("scan", out);
    return;
  }
  std::string pattern;
  bool have_pattern = false;
  int64_t count = options_.scan_default_count;
  for (size_t i = 2; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) {
      ReplyError("ERR syntax error", out);
      return;
    }
    const std::string option = ToLower(*args[i]);
    if (option == "match") {
      pattern = *args[i + 1];
      have_pattern = true;
    } else if (option == "count") {
      count = strtoll(args[i + 1]->c_str(), nullptr, 10);
      if (count < 1) {
        ReplyError("ERR syntax error", out);
        return;
      }
      count = std::min<int64_t>(count, options_.scan_max_count);
    } else {
      ReplyError("ERR syntax error", out);
      return;
    }
  }

  const std::string& cursor = *args[1];
  ReadOptions read_options;
  if (session != nullptr) {
    if (cursor == "0") {
      // New walk: re-pin, releasing any walk this connection abandoned.
      session->Release();
      session->db_ = db_;
      session->snapshot_ = db_->GetSnapshot();
      session->has_snapshot_ = true;
      read_options.snapshot = session->snapshot_;
    } else if (session->has_snapshot_ && cursor == session->expected_cursor_) {
      read_options.snapshot = session->snapshot_;
    } else {
      // A cursor we never handed out (client resumed across reconnects, or
      // interleaved walks): don't serve it stale state from an unrelated
      // walk.
      session->Release();
    }
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(read_options));
  if (cursor == "0") {
    it->SeekToFirst();
  } else {
    it->Seek(cursor);
  }

  std::vector<std::string> keys;
  std::string next_cursor = "0";
  int64_t scanned = 0;
  for (; it->Valid() && scanned < count; it->Next()) {
    ++scanned;
    Slice key = it->key();
    if (!have_pattern || GlobMatch(pattern, key)) {
      keys.emplace_back(key.data(), key.size());
    }
    if (scanned == count) {
      // Resume after this key next page.
      next_cursor.assign(key.data(), key.size());
      next_cursor.push_back('\0');
    }
  }
  if (!it->status().ok()) {
    if (session != nullptr) session->Release();
    ReplyError("ERR " + it->status().ToString(), out);
    return;
  }
  if (!it->Valid()) next_cursor = "0";  // walk finished inside this page

  if (session != nullptr && session->has_snapshot_) {
    if (next_cursor == "0") {
      session->Release();
    } else {
      session->expected_cursor_ = next_cursor;
    }
  }

  EncodeArrayHeader(2, out);
  EncodeBulkString(next_cursor, out);
  EncodeArrayHeader(keys.size(), out);
  for (const std::string& key : keys) EncodeBulkString(key, out);
}

// INFO [server|engine|memory|lsm|shards]
//
// Built straight from the metrics registry snapshot — the single source of
// truth the JSON/Prometheus exporters read — never by re-parsing their
// output. Redis-style sections: "# Server" (static facts + connection
// state), "# Engine" (every pmblade.* counter/gauge; histograms as
// count/p50/p99), "# Memory" (the memory arbiter's budget split and
// pressure state, as one JSON document), "# Lsm" (the compaction policy
// plus per-level run/file/byte shape and the write-amp inputs), "# Shards"
// (per-shard pressure breakdown; only on a sharded engine).
void CommandHandler::Info(const std::vector<const std::string*>& args,
                          std::string* out) {
  bool want_server = true;
  bool want_engine = true;
  bool want_memory = true;
  bool want_lsm = true;
  bool want_shards = db_->num_shards() > 1;
  if (args.size() == 2) {
    const std::string section = ToLower(*args[1]);
    want_server = section == "server";
    want_engine = section == "engine";
    want_memory = section == "memory";
    want_lsm = section == "lsm";
    want_shards = want_shards && section == "shards";
    if (!want_server && !want_engine && !want_memory && !want_lsm &&
        !want_shards) {
      EncodeBulkString("", out);
      return;
    }
  } else if (args.size() > 2) {
    WrongArity("info", out);
    return;
  }

  std::string body;
  if (want_server) {
    body += "# Server\r\n";
    body += "engine:pmblade\r\n";
    body += "protocol:RESP2\r\n";
    for (const auto& [key, value] : info_lines_) {
      body += key + ":" + value + "\r\n";
    }
    body += "connected_clients:" +
            std::to_string(metrics_->connections_active->Value()) + "\r\n";
    body += "total_commands_processed:" +
            std::to_string(metrics_->commands->Value()) + "\r\n";
    body += "total_net_input_bytes:" +
            std::to_string(metrics_->bytes_in->Value()) + "\r\n";
    body += "total_net_output_bytes:" +
            std::to_string(metrics_->bytes_out->Value()) + "\r\n";
    body += "write_pressure:" +
            std::string(WritePressureName(db_->GetWritePressure())) + "\r\n";
  }
  if (want_shards) {
    if (!body.empty()) body += "\r\n";
    body += "# Shards\r\n";
    const uint32_t shards = db_->num_shards();
    body += "shard_count:" + std::to_string(shards) + "\r\n";
    for (uint32_t i = 0; i < shards; ++i) {
      body += "shard" + std::to_string(i) + ":write_pressure=" +
              WritePressureName(db_->GetShardWritePressure(i)) + "\r\n";
    }
  }
  if (want_engine) {
    if (!body.empty()) body += "\r\n";
    body += "# Engine\r\n";
    obs::MetricsSnapshot snapshot =
        db_->metrics_registry()->Snapshot(clock_->NowNanos());
    char line[160];
    for (const obs::MetricSample& sample : snapshot.samples) {
      if (sample.kind == obs::MetricKind::kHistogram) {
        snprintf(line, sizeof(line),
                 "%s:count=%llu,p50=%.0f,p99=%.0f\r\n", sample.name.c_str(),
                 static_cast<unsigned long long>(sample.hist.count()),
                 sample.hist.Percentile(50), sample.hist.Percentile(99));
      } else if (sample.value == static_cast<int64_t>(sample.value)) {
        snprintf(line, sizeof(line), "%s:%lld\r\n", sample.name.c_str(),
                 static_cast<long long>(sample.value));
      } else {
        snprintf(line, sizeof(line), "%s:%.6g\r\n", sample.name.c_str(),
                 sample.value);
      }
      body += line;
    }
  }
  if (want_memory) {
    if (!body.empty()) body += "\r\n";
    body += "# Memory\r\n";
    std::string mem_json;
    if (!db_->GetProperty("pmblade.mem.json", &mem_json)) {
      mem_json = "{\"enabled\": false}";
    }
    body += "mem_arbiter:" + mem_json + "\r\n";
  }
  if (want_lsm) {
    if (!body.empty()) body += "\r\n";
    body += "# Lsm\r\n";
    std::string policy;
    if (db_->GetProperty("pmblade.compaction-policy", &policy)) {
      body += "compaction_policy:" + policy + "\r\n";
    }
    uint64_t deepest = 0;
    db_->GetProperty("pmblade.lsm.max_ssd_level", &deepest);
    // Level 0 is the PM side; SSD levels follow up to the deepest occupied.
    for (uint64_t level = 0; level <= deepest; ++level) {
      const std::string prefix =
          "pmblade.lsm.level" + std::to_string(level) + ".";
      uint64_t runs = 0, files = 0, bytes = 0;
      if (!db_->GetProperty(prefix + "runs", &runs)) break;
      db_->GetProperty(prefix + "files", &files);
      db_->GetProperty(prefix + "bytes", &bytes);
      body += "level" + std::to_string(level) + ":runs=" +
              std::to_string(runs) + ",files=" + std::to_string(files) +
              ",bytes=" + std::to_string(bytes) + "\r\n";
    }
    uint64_t v = 0;
    if (db_->GetProperty("pmblade.write.user_bytes", &v)) {
      body += "ssd_user_bytes_written:" + std::to_string(v) + "\r\n";
    }
    if (db_->GetProperty("pmblade.compaction.major.bytes", &v)) {
      body += "ssd_bytes_written:" + std::to_string(v) + "\r\n";
    }
  }
  EncodeBulkString(body, out);
}

}  // namespace net
}  // namespace pmblade
