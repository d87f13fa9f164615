// Tests for src/net: the RESP parser (incremental feeds, pipelining, limits,
// inline commands), the command handler (semantics + admission control), and
// the epoll server end to end over real loopback sockets — pipelined
// ordering, concurrent clients checked against direct DB reads, INFO through
// a real client-side parse, exporter wiring, admission shed, and
// graceful-drain-loses-no-acked-writes with a reopen.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "net/commands.h"
#include "net/resp.h"
#include "net/server.h"

namespace pmblade {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// RESP parser
// ---------------------------------------------------------------------------

std::vector<RespValue> ParseAll(RespParser* parser) {
  std::vector<RespValue> out;
  RespValue v;
  while (parser->Next(&v) == RespParser::Result::kValue) {
    out.push_back(v);
  }
  return out;
}

TEST(RespParserTest, SimpleTypes) {
  RespParser parser;
  const char* wire = "+OK\r\n-ERR boom\r\n:42\r\n$5\r\nhello\r\n$-1\r\n";
  parser.Feed(wire, strlen(wire));
  std::vector<RespValue> values = ParseAll(&parser);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values[0].type, RespValue::Type::kSimpleString);
  EXPECT_EQ(values[0].str, "OK");
  EXPECT_EQ(values[1].type, RespValue::Type::kError);
  EXPECT_EQ(values[1].str, "ERR boom");
  EXPECT_EQ(values[2].type, RespValue::Type::kInteger);
  EXPECT_EQ(values[2].integer, 42);
  EXPECT_EQ(values[3].type, RespValue::Type::kBulkString);
  EXPECT_EQ(values[3].str, "hello");
  EXPECT_EQ(values[4].type, RespValue::Type::kNull);
}

TEST(RespParserTest, ByteAtATimeFeedMatchesOneShot) {
  const char* wire =
      "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\nv\r\n1\r\n"
      "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n";
  RespParser parser;
  std::vector<RespValue> values;
  RespValue v;
  for (size_t i = 0; i < strlen(wire); ++i) {
    parser.Feed(wire + i, 1);
    while (parser.Next(&v) == RespParser::Result::kValue) {
      values.push_back(v);
    }
  }
  ASSERT_EQ(values.size(), 2u);
  ASSERT_EQ(values[0].array.size(), 3u);
  EXPECT_EQ(values[0].array[0].str, "SET");
  EXPECT_EQ(values[0].array[2].str, "v\r\n1");  // CRLF inside a bulk is data
  ASSERT_EQ(values[1].array.size(), 2u);
  EXPECT_EQ(values[1].array[1].str, "k");
}

TEST(RespParserTest, PipelinedBurst) {
  RespParser parser;
  std::string wire;
  for (int i = 0; i < 100; ++i) {
    EncodeBulkStringArray({"SET", "k" + std::to_string(i), "v"}, &wire);
  }
  parser.Feed(wire.data(), wire.size());
  std::vector<RespValue> values = ParseAll(&parser);
  ASSERT_EQ(values.size(), 100u);
  EXPECT_EQ(values[99].array[1].str, "k99");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(RespParserTest, InlineCommands) {
  RespParser parser;
  const char* wire = "PING\r\nSET key value\r\n\r\n  GET   key  \r\n";
  parser.Feed(wire, strlen(wire));
  std::vector<RespValue> values = ParseAll(&parser);
  // The empty line parses to an empty array (ignored by the handler).
  ASSERT_EQ(values.size(), 4u);
  ASSERT_EQ(values[0].array.size(), 1u);
  EXPECT_EQ(values[0].array[0].str, "PING");
  ASSERT_EQ(values[1].array.size(), 3u);
  EXPECT_EQ(values[1].array[2].str, "value");
  EXPECT_EQ(values[2].array.size(), 0u);
  ASSERT_EQ(values[3].array.size(), 2u);
  EXPECT_EQ(values[3].array[0].str, "GET");
}

TEST(RespParserTest, OversizedBulkRejected) {
  RespParser::Limits limits;
  limits.max_bulk_bytes = 16;
  RespParser parser(limits);
  const char* wire = "$1000\r\n";
  parser.Feed(wire, strlen(wire));
  RespValue v;
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
  EXPECT_NE(parser.error().find("bulk"), std::string::npos);
}

TEST(RespParserTest, OversizedArrayRejected) {
  RespParser::Limits limits;
  limits.max_array_elements = 4;
  RespParser parser(limits);
  const char* wire = "*100\r\n";
  parser.Feed(wire, strlen(wire));
  RespValue v;
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
}

TEST(RespParserTest, OversizedInlineRejected) {
  RespParser::Limits limits;
  limits.max_inline_bytes = 8;
  RespParser parser(limits);
  std::string wire(100, 'x');  // no newline in sight, line keeps growing
  parser.Feed(wire.data(), wire.size());
  RespValue v;
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
}

TEST(RespParserTest, GarbageInsideArrayIsFatal) {
  RespParser parser;
  const char* wire = "*2\r\n$3\r\nGET\r\nnot-a-type\r\n";
  parser.Feed(wire, strlen(wire));
  RespValue v;
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
  // The parser stays latched in the error state.
  parser.Feed("+OK\r\n", 5);
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
}

TEST(RespParserTest, BulkMissingTerminatorIsFatal) {
  RespParser parser;
  const char* wire = "$3\r\nabcXY";  // XY where CRLF must be
  parser.Feed(wire, strlen(wire));
  RespValue v;
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kError);
}

TEST(RespParserTest, NeedMoreThenValue) {
  RespParser parser;
  RespValue v;
  parser.Feed("*1\r\n$4\r\nPI", 10);
  EXPECT_EQ(parser.Next(&v), RespParser::Result::kNeedMore);
  parser.Feed("NG\r\n", 4);
  ASSERT_EQ(parser.Next(&v), RespParser::Result::kValue);
  EXPECT_EQ(v.array[0].str, "PING");
}

TEST(GlobMatchTest, Patterns) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("key:*", "key:42"));
  EXPECT_FALSE(GlobMatch("key:*", "other:42"));
  EXPECT_TRUE(GlobMatch("k?y", "key"));
  EXPECT_FALSE(GlobMatch("k?y", "kezy"));
  EXPECT_TRUE(GlobMatch("a*b*c", "axxbyyc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "axxbyy"));
  EXPECT_TRUE(GlobMatch("\\*", "*"));
  EXPECT_FALSE(GlobMatch("\\*", "x"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
}

// ---------------------------------------------------------------------------
// Command handler (no sockets)
// ---------------------------------------------------------------------------

class CommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_net_command_test";
    options_ = Options();
    options_.pm_latency.inject_latency = false;
    OpenFresh();
  }
  /// Opens an empty DB with options_ behind a handler with handler_options_.
  void OpenFresh() {
    handler_.reset();
    db_.reset();
    DestroyDB(options_, dbname_);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    db_ = std::move(db);
    metrics_.Register(db_->metrics_registry());
    handler_.reset(new CommandHandler(db_.get(), handler_options_,
                                      &metrics_, SystemClock()));
  }
  void TearDown() override {
    handler_.reset();
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  /// Runs one command through parse + dispatch, returns the parsed reply.
  /// `session` is forwarded to the handler (nullptr = stateless, as the
  /// plain overload always was).
  RespValue Call(const std::vector<std::string>& args,
                 CommandHandler::Result* result = nullptr,
                 CommandHandler::Session* session = nullptr) {
    std::string wire;
    EncodeBulkStringArray(args, &wire);
    RespParser parser;
    parser.Feed(wire.data(), wire.size());
    RespValue command;
    EXPECT_EQ(parser.Next(&command), RespParser::Result::kValue);

    std::string out;
    CommandHandler::Result r = handler_->Execute(command, session, &out);
    if (result != nullptr) *result = r;
    RespParser reply_parser;
    reply_parser.Feed(out.data(), out.size());
    RespValue reply;
    EXPECT_EQ(reply_parser.Next(&reply), RespParser::Result::kValue)
        << "no reply for " << args[0];
    return reply;
  }

  uint64_t OpenSnapshots() {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty("pmblade.snapshots.open", &value));
    return value;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
  ServerMetrics metrics_;
  CommandHandlerOptions handler_options_;
  std::unique_ptr<CommandHandler> handler_;
};

TEST_F(CommandTest, SetGetDelRoundTrip) {
  EXPECT_EQ(Call({"SET", "a", "1"}).type, RespValue::Type::kSimpleString);
  RespValue got = Call({"GET", "a"});
  EXPECT_EQ(got.type, RespValue::Type::kBulkString);
  EXPECT_EQ(got.str, "1");
  EXPECT_EQ(Call({"GET", "missing"}).type, RespValue::Type::kNull);
  RespValue del = Call({"DEL", "a", "missing"});
  EXPECT_EQ(del.type, RespValue::Type::kInteger);
  EXPECT_EQ(del.integer, 1);  // only "a" existed
  EXPECT_EQ(Call({"GET", "a"}).type, RespValue::Type::kNull);
}

TEST_F(CommandTest, CaseInsensitiveAndArity) {
  EXPECT_EQ(Call({"set", "a", "1"}).type, RespValue::Type::kSimpleString);
  EXPECT_EQ(Call({"gEt", "a"}).str, "1");
  RespValue err = Call({"SET", "a"});
  EXPECT_EQ(err.type, RespValue::Type::kError);
  EXPECT_NE(err.str.find("wrong number"), std::string::npos);
  EXPECT_EQ(Call({"NOSUCH", "x"}).type, RespValue::Type::kError);
}

TEST_F(CommandTest, MSetMGetExists) {
  RespValue ok = Call({"MSET", "a", "1", "b", "2", "c", "3"});
  EXPECT_EQ(ok.type, RespValue::Type::kSimpleString);
  RespValue got = Call({"MGET", "a", "missing", "c"});
  ASSERT_EQ(got.array.size(), 3u);
  EXPECT_EQ(got.array[0].str, "1");
  EXPECT_EQ(got.array[1].type, RespValue::Type::kNull);
  EXPECT_EQ(got.array[2].str, "3");
  EXPECT_EQ(Call({"EXISTS", "a", "b", "missing"}).integer, 2);
  EXPECT_EQ(Call({"MSET", "a", "1", "b"}).type, RespValue::Type::kError);
}

TEST_F(CommandTest, ScanPagesEntireKeyspace) {
  for (int i = 0; i < 25; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    Call({"SET", key, "v"});
  }
  std::vector<std::string> seen;
  std::string cursor = "0";
  int pages = 0;
  do {
    RespValue page = Call({"SCAN", cursor, "COUNT", "7"});
    ASSERT_EQ(page.array.size(), 2u);
    cursor = page.array[0].str;
    for (const RespValue& k : page.array[1].array) {
      seen.push_back(k.str);
    }
    ++pages;
    ASSERT_LE(pages, 20) << "cursor failed to terminate";
  } while (cursor != "0");
  ASSERT_EQ(seen.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    EXPECT_EQ(seen[i], key);  // pages arrive in key order, no dup/loss
  }
  EXPECT_GE(pages, 4);
}

// A SCAN page moves pmblade.scans, pmblade.scan.entries (keys walked, MATCH
// or not) and the pmblade.latency.scan histogram.
TEST_F(CommandTest, ScanRecordsScanMetrics) {
  Call({"MSET", "a", "1", "b", "2", "c", "3"});
  auto snapshot = [this] { return db_->metrics_registry()->Snapshot(); };
  auto counter = [](const obs::MetricsSnapshot& snap, const char* name) {
    const obs::MetricSample* sample = snap.Find(name);
    EXPECT_NE(sample, nullptr) << name;
    return sample != nullptr ? sample->value : -1.0;
  };
  auto latency_count = [](const obs::MetricsSnapshot& snap) {
    const obs::MetricSample* sample = snap.Find("pmblade.latency.scan");
    EXPECT_NE(sample, nullptr);
    return sample != nullptr ? sample->hist.count() : 0;
  };
  obs::MetricsSnapshot before = snapshot();
  EXPECT_EQ(counter(before, "pmblade.scans"), 0.0);
  RespValue page = Call({"SCAN", "0", "MATCH", "b*", "COUNT", "2"});
  ASSERT_EQ(page.array.size(), 2u);
  Call({"SCAN", page.array[0].str, "COUNT", "10"});
  obs::MetricsSnapshot after = snapshot();
  EXPECT_EQ(counter(after, "pmblade.scans"), 2.0);
  EXPECT_EQ(counter(after, "pmblade.scan.entries"), 3.0);
  EXPECT_EQ(latency_count(after) - latency_count(before), 2u);
}

TEST_F(CommandTest, ScanMatchAndDbSize) {
  Call({"MSET", "user:1", "a", "user:2", "b", "other:1", "c"});
  RespValue page = Call({"SCAN", "0", "MATCH", "user:*", "COUNT", "100"});
  ASSERT_EQ(page.array.size(), 2u);
  EXPECT_EQ(page.array[0].str, "0");
  ASSERT_EQ(page.array[1].array.size(), 2u);
  EXPECT_EQ(page.array[1].array[0].str, "user:1");
  EXPECT_EQ(Call({"DBSIZE"}).integer, 3);
}

TEST_F(CommandTest, PingEchoInfo) {
  EXPECT_EQ(Call({"PING"}).str, "PONG");
  EXPECT_EQ(Call({"PING", "hi"}).str, "hi");
  EXPECT_EQ(Call({"ECHO", "yo"}).str, "yo");
  RespValue info = Call({"INFO"});
  ASSERT_EQ(info.type, RespValue::Type::kBulkString);
  EXPECT_NE(info.str.find("# Server"), std::string::npos);
  EXPECT_NE(info.str.find("# Engine"), std::string::npos);
  EXPECT_NE(info.str.find("# Memory"), std::string::npos);
  EXPECT_NE(info.str.find("mem_arbiter:{"), std::string::npos);
  EXPECT_NE(info.str.find("write_pressure:none"), std::string::npos);
  EXPECT_NE(info.str.find("pmblade.server.commands"), std::string::npos);

  // Section filtering: INFO memory returns only the arbiter state.
  RespValue mem = Call({"INFO", "memory"});
  ASSERT_EQ(mem.type, RespValue::Type::kBulkString);
  EXPECT_EQ(mem.str.find("# Engine"), std::string::npos);
  EXPECT_NE(mem.str.find("mem_arbiter:{"), std::string::npos);
}

TEST_F(CommandTest, QuitAndShutdownSignalTheServer) {
  CommandHandler::Result result;
  EXPECT_EQ(Call({"QUIT"}, &result).type, RespValue::Type::kSimpleString);
  EXPECT_TRUE(result.close_connection);
  EXPECT_FALSE(result.shutdown_server);

  std::string wire, out;
  EncodeBulkStringArray({"SHUTDOWN"}, &wire);
  RespParser parser;
  parser.Feed(wire.data(), wire.size());
  RespValue command;
  ASSERT_EQ(parser.Next(&command), RespParser::Result::kValue);
  result = handler_->Execute(command, &out);
  EXPECT_TRUE(out.empty());  // SHUTDOWN sends no reply, like Redis
  EXPECT_TRUE(result.close_connection);
  EXPECT_TRUE(result.shutdown_server);
}

TEST_F(CommandTest, NonArrayCommandIsFatal) {
  RespValue bogus;
  bogus.type = RespValue::Type::kInteger;
  bogus.integer = 7;
  std::string out;
  CommandHandler::Result result = handler_->Execute(bogus, &out);
  EXPECT_TRUE(result.close_connection);
  EXPECT_EQ(out[0], '-');
}

TEST_F(CommandTest, AdmissionShedsWritesUnderStall) {
  handler_options_.pressure_probe = [](const Slice&) { return WritePressure::kStall; };
  handler_.reset(new CommandHandler(db_.get(), handler_options_, &metrics_,
                                    SystemClock()));
  const uint64_t sheds_before = metrics_.sheds->Value();
  RespValue reply = Call({"SET", "a", "1"});
  EXPECT_EQ(reply.type, RespValue::Type::kError);
  EXPECT_EQ(reply.str.compare(0, 4, "BUSY"), 0);
  EXPECT_EQ(Call({"MSET", "a", "1"}).type, RespValue::Type::kError);
  EXPECT_EQ(Call({"DEL", "a"}).type, RespValue::Type::kError);
  EXPECT_EQ(metrics_.sheds->Value(), sheds_before + 3);
  // Reads are never shed.
  EXPECT_EQ(Call({"PING"}).str, "PONG");
  EXPECT_EQ(Call({"GET", "a"}).type, RespValue::Type::kNull);
}

// An engine Busy (here a PM log append that found no pool space) is as
// retryable as a shed, and the reply says so the same way.
TEST_F(CommandTest, EngineBusyRepliesBusy) {
  options_.wal_in_pm = true;
  options_.pm_pool_capacity = 1 << 20;      // room for 16 log segments
  options_.l0_layout = L0Layout::kSstable;  // the flush needs no PM
  // Admit every write, so the reply comes from the engine.
  handler_options_.pressure_probe = [](const Slice&) {
    return WritePressure::kNone;
  };
  OpenFresh();
  const std::string value(1000, 'x');
  RespValue reply;
  for (int i = 0; i < 4000; ++i) {
    reply = Call({"SET", "k" + std::to_string(i), value});
    if (reply.type != RespValue::Type::kSimpleString) break;
  }
  ASSERT_EQ(reply.type, RespValue::Type::kError);
  EXPECT_EQ(reply.str.compare(0, 5, "BUSY "), 0) << reply.str;
  EXPECT_NE(reply.str.find("; retry later"), std::string::npos) << reply.str;
}

TEST_F(CommandTest, SlowdownShedsOnlyWhenConfigured) {
  handler_options_.pressure_probe = [](const Slice&) {
    return WritePressure::kSlowdown;
  };
  handler_.reset(new CommandHandler(db_.get(), handler_options_, &metrics_,
                                    SystemClock()));
  EXPECT_EQ(Call({"SET", "a", "1"}).type, RespValue::Type::kSimpleString);

  handler_options_.shed_on_slowdown = true;
  handler_.reset(new CommandHandler(db_.get(), handler_options_, &metrics_,
                                    SystemClock()));
  EXPECT_EQ(Call({"SET", "a", "2"}).type, RespValue::Type::kError);
}

TEST_F(CommandTest, ErrorRepliesCountedExactlyOnce) {
  const uint64_t errors_base = metrics_.error_replies->Value();
  const uint64_t parse_base = metrics_.parse_errors->Value();

  Call({"SET", "a"});                 // wrong arity
  Call({"NOSUCH", "x"});              // unknown command
  Call({"SCAN", "0", "BOGUS", "x"});  // unknown SCAN option
  Call({"SCAN", "0", "COUNT", "0"});  // bad COUNT
  Call({"SCAN", "0", "MATCH"});       // dangling option value
  EXPECT_EQ(metrics_.error_replies->Value(), errors_base + 5);

  // Success and null replies add nothing.
  Call({"SET", "a", "1"});
  Call({"GET", "a"});
  Call({"GET", "missing"});
  Call({"PING"});
  EXPECT_EQ(metrics_.error_replies->Value(), errors_base + 5);
  EXPECT_EQ(metrics_.parse_errors->Value(), parse_base);

  // A protocol error sends one -ERR: it counts once in error_replies (the
  // census of error replies sent) AND once in parse_errors (the fatal
  // subset) — previously it was missing from error_replies entirely.
  RespValue bogus;
  bogus.type = RespValue::Type::kInteger;
  bogus.integer = 7;
  std::string out;
  handler_->Execute(bogus, &out);
  EXPECT_EQ(metrics_.error_replies->Value(), errors_base + 6);
  EXPECT_EQ(metrics_.parse_errors->Value(), parse_base + 1);

  // Sheds: -BUSY is an error reply too, counted exactly once per shed.
  handler_options_.pressure_probe = [](const Slice&) {
    return WritePressure::kStall;
  };
  handler_.reset(new CommandHandler(db_.get(), handler_options_, &metrics_,
                                    SystemClock()));
  Call({"SET", "a", "1"});
  EXPECT_EQ(metrics_.error_replies->Value(), errors_base + 7);
}

TEST_F(CommandTest, ScanSessionPinsOneSnapshotPerWalk) {
  for (int i = 0; i < 20; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%02d", i);
    Call({"SET", key, "v"});
  }
  ASSERT_EQ(OpenSnapshots(), 0u);

  CommandHandler::Session session;
  RespValue page = Call({"SCAN", "0", "COUNT", "5"}, nullptr, &session);
  ASSERT_EQ(page.array.size(), 2u);
  std::string cursor = page.array[0].str;
  ASSERT_NE(cursor, "0");
  EXPECT_EQ(OpenSnapshots(), 1u);  // the walk pinned exactly one

  // A key written after the pin sorts past every unvisited key; a
  // per-page latest read would surface it, the pinned walk must not.
  Call({"SET", "zzzz-late", "v"});

  std::vector<std::string> seen;
  for (const RespValue& k : page.array[1].array) seen.push_back(k.str);
  while (cursor != "0") {
    page = Call({"SCAN", cursor, "COUNT", "5"}, nullptr, &session);
    ASSERT_EQ(page.array.size(), 2u);
    cursor = page.array[0].str;
    for (const RespValue& k : page.array[1].array) seen.push_back(k.str);
    EXPECT_LE(OpenSnapshots(), 1u);  // never more than the walk's one pin
  }
  EXPECT_EQ(seen.size(), 20u) << "walk saw a post-pin write";
  EXPECT_EQ(OpenSnapshots(), 0u);  // released when the walk finished

  // Restarting with "0" replaces the pin instead of stacking pins, and a
  // cursor we never handed out drops it (no stale view for foreign walks).
  Call({"SCAN", "0", "COUNT", "5"}, nullptr, &session);
  EXPECT_EQ(OpenSnapshots(), 1u);
  Call({"SCAN", "0", "COUNT", "5"}, nullptr, &session);
  EXPECT_EQ(OpenSnapshots(), 1u);
  Call({"SCAN", "never-handed-out", "COUNT", "5"}, nullptr, &session);
  EXPECT_EQ(OpenSnapshots(), 0u);

  // The teardown path: an abandoned walk is released by Session::Release
  // (what the server calls when a connection closes).
  Call({"SCAN", "0", "COUNT", "5"}, nullptr, &session);
  EXPECT_EQ(OpenSnapshots(), 1u);
  session.Release();
  EXPECT_EQ(OpenSnapshots(), 0u);
}

// ---------------------------------------------------------------------------
// Server over real loopback sockets
// ---------------------------------------------------------------------------

/// Minimal blocking RESP client: sends command arrays, parses replies with
/// the real parser (the INFO/exporter round-trip the issue asks for — no
/// regex anywhere near the server path).
class RespTestClient {
 public:
  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    timeval tv{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RespTestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Send(const std::vector<std::string>& args) {
    std::string wire;
    EncodeBulkStringArray(args, &wire);
    return SendRaw(wire);
  }

  bool SendRaw(const std::string& wire) {
    size_t sent = 0;
    while (sent < wire.size()) {
      ssize_t n = write(fd_, wire.data() + sent, wire.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one reply is parsed. Returns false on EOF/timeout/parse
  /// error.
  bool ReadReply(RespValue* reply) {
    char buf[4096];
    while (true) {
      RespParser::Result r = parser_.Next(reply);
      if (r == RespParser::Result::kValue) return true;
      if (r == RespParser::Result::kError) return false;
      ssize_t n = read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      parser_.Feed(buf, static_cast<size_t>(n));
    }
  }

  RespValue Command(const std::vector<std::string>& args) {
    RespValue reply;
    if (!Send(args) || !ReadReply(&reply)) {
      reply.type = RespValue::Type::kError;
      reply.str = "CLIENT transport failure";
    }
    return reply;
  }

  /// Reads until the server closes the connection; returns parsed replies.
  std::vector<RespValue> DrainUntilClose() {
    std::vector<RespValue> replies;
    RespValue reply;
    while (ReadReply(&reply)) replies.push_back(reply);
    return replies;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  RespParser parser_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_net_server_test";
    options_ = Options();
    DestroyDB(options_, dbname_);
    options_.pm_latency.inject_latency = false;
  }
  void TearDown() override {
    server_.reset();
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  void OpenDb() {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    db_ = std::move(db);
  }

  void StartServer() {
    if (db_ == nullptr) OpenDb();
    server_options_.port = 0;  // ephemeral
    server_options_.num_workers = 2;
    server_.reset(new Server(server_options_, db_.get()));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  std::string dbname_;
  Options options_;
  ServerOptions server_options_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, SetGetScanOverSocket) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  EXPECT_EQ(client.Command({"SET", "a", "hello"}).str, "OK");
  RespValue got = client.Command({"GET", "a"});
  EXPECT_EQ(got.type, RespValue::Type::kBulkString);
  EXPECT_EQ(got.str, "hello");

  client.Command({"MSET", "b", "1", "c", "2"});
  RespValue scan = client.Command({"SCAN", "0", "COUNT", "100"});
  ASSERT_EQ(scan.array.size(), 2u);
  EXPECT_EQ(scan.array[0].str, "0");
  EXPECT_EQ(scan.array[1].array.size(), 3u);

  // The write went through the real engine, not some server-side cache.
  std::string direct;
  ASSERT_TRUE(db_->Get(ReadOptions(), "a", &direct).ok());
  EXPECT_EQ(direct, "hello");
}

TEST_F(ServerTest, PipelinedRepliesArriveInOrder) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  constexpr int kN = 500;
  std::string wire;
  for (int i = 0; i < kN; ++i) {
    EncodeBulkStringArray({"SET", "k" + std::to_string(i), std::to_string(i)},
                          &wire);
    EncodeBulkStringArray({"GET", "k" + std::to_string(i)}, &wire);
  }
  ASSERT_TRUE(client.SendRaw(wire));
  for (int i = 0; i < kN; ++i) {
    RespValue set_reply, get_reply;
    ASSERT_TRUE(client.ReadReply(&set_reply)) << "at " << i;
    ASSERT_TRUE(client.ReadReply(&get_reply)) << "at " << i;
    EXPECT_EQ(set_reply.str, "OK");
    ASSERT_EQ(get_reply.type, RespValue::Type::kBulkString);
    EXPECT_EQ(get_reply.str, std::to_string(i));
  }
}

TEST_F(ServerTest, InlineCommandsWork) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.SendRaw("SET inline works\r\nGET inline\r\nPING\r\n"));
  RespValue reply;
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.str, "OK");
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.str, "works");
  ASSERT_TRUE(client.ReadReply(&reply));
  EXPECT_EQ(reply.str, "PONG");
}

TEST_F(ServerTest, ProtocolErrorGetsReplyThenClose) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.SendRaw("*2\r\n$3\r\nGET\r\n:666\r\n"));  // int in cmd
  std::vector<RespValue> replies = client.DrainUntilClose();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, RespValue::Type::kError);
  EXPECT_NE(replies[0].str.find("Protocol error"), std::string::npos);
  EXPECT_GE(server_->metrics().parse_errors->Value(), 1u);
}

TEST_F(ServerTest, ConcurrentClientsMatchDirectReads) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kPerClient = 250;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RespTestClient client;
      if (!client.Connect(server_->port())) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::string key =
            "c" + std::to_string(c) + ":" + std::to_string(i);
        if (client.Command({"SET", key, key + "-value"}).str != "OK") {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every acked write must be visible through the engine directly.
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const std::string key =
          "c" + std::to_string(c) + ":" + std::to_string(i);
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ(value, key + "-value");
    }
  }
  EXPECT_GE(server_->metrics().connections_accepted->Value(),
            static_cast<uint64_t>(kClients));
}

TEST_F(ServerTest, InfoAndExportersRoundTrip) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  client.Command({"SET", "a", "1"});

  RespValue info = client.Command({"INFO"});
  ASSERT_EQ(info.type, RespValue::Type::kBulkString);
  EXPECT_NE(info.str.find("tcp_port:" + std::to_string(server_->port())),
            std::string::npos);
  EXPECT_NE(info.str.find("connected_clients:1"), std::string::npos);
  EXPECT_NE(info.str.find("pmblade.server.commands"), std::string::npos);
  EXPECT_NE(info.str.find("pmblade.flush.count"), std::string::npos);

  // The same instruments must flow through both existing exporters.
  std::string json, prom;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  EXPECT_NE(json.find("pmblade.server.commands"), std::string::npos);
  EXPECT_NE(json.find("pmblade.server.cmd.set"), std::string::npos);
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.prometheus", &prom));
  EXPECT_NE(prom.find("pmblade_server_commands"), std::string::npos);
  EXPECT_NE(prom.find("pmblade_server_connections"), std::string::npos);
}

TEST_F(ServerTest, PrePollStopsWhenIdleAndIsExported) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(client.Command({"SET", "k" + std::to_string(i), "v"}).str,
              "OK");
  }
  const ServerMetrics& m = server_->metrics();
  // A served command arms a poll (the first one cannot be backing off),
  // unless the workers are confined to one CPU.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  ASSERT_EQ(sched_getaffinity(0, sizeof(cpus), &cpus), 0);
  if (CPU_COUNT(&cpus) > 1) {
    EXPECT_GT(m.poll_hits->Value() + m.poll_misses->Value(), 0u);
  }

  // Once the poll after the last reply has run out, an idle server does not
  // poll: at most one 25 us window per worker may still land.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t before = m.poll_nanos->Value();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LE(m.poll_nanos->Value() - before,
            static_cast<uint64_t>(server_options_.num_workers) * 25000u);

  const char* names[] = {"poll_nanos", "poll_hits", "poll_misses",
                         "poll_backoffs"};
  RespValue info = client.Command({"INFO"});
  ASSERT_EQ(info.type, RespValue::Type::kBulkString);
  std::string json, prom;
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.json", &json));
  ASSERT_TRUE(db_->GetProperty("pmblade.stats.prometheus", &prom));
  for (const char* name : names) {
    EXPECT_NE(info.str.find(std::string("pmblade.server.") + name + ":"),
              std::string::npos)
        << name;
    EXPECT_NE(json.find(std::string("pmblade.server.") + name),
              std::string::npos)
        << name;
    EXPECT_NE(prom.find(std::string("pmblade_server_") + name),
              std::string::npos)
        << name;
  }
}

TEST_F(ServerTest, NoPrePollWhenConfinedToOneCpu) {
  // Workers inherit the affinity of the thread that starts them.
  cpu_set_t saved, one;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(client.Command({"SET", "k" + std::to_string(i), "v"}).str,
              "OK");
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  const ServerMetrics& m = server_->metrics();
  EXPECT_EQ(m.poll_hits->Value() + m.poll_misses->Value(), 0u);
  EXPECT_EQ(m.poll_nanos->Value(), 0u);
}

TEST_F(ServerTest, AdmissionShedOverSocket) {
  server_options_.handler.pressure_probe = [](const Slice&) {
    return WritePressure::kStall;
  };
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  RespValue reply = client.Command({"SET", "a", "1"});
  ASSERT_EQ(reply.type, RespValue::Type::kError);
  EXPECT_EQ(reply.str.compare(0, 4, "BUSY"), 0);
  EXPECT_EQ(client.Command({"PING"}).str, "PONG");
  EXPECT_GE(server_->metrics().sheds->Value(), 1u);
}

TEST_F(ServerTest, ShutdownCommandStopsTheServer) {
  StartServer();
  RespTestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.Send({"SHUTDOWN"}));
  server_->WaitForShutdownRequest();  // unblocked by the command
  server_->Stop();
  EXPECT_FALSE(server_->running());
  EXPECT_TRUE(client.DrainUntilClose().empty());  // no reply, clean close
}

TEST_F(ServerTest, GracefulDrainLosesNoAckedWrites) {
  options_.memtable_bytes = 16 << 10;  // force flushes during the workload
  StartServer();

  constexpr int kWrites = 400;
  {
    RespTestClient client;
    ASSERT_TRUE(client.Connect(server_->port()));
    for (int i = 0; i < kWrites; ++i) {
      const std::string key = "persist:" + std::to_string(i);
      ASSERT_EQ(client.Command({"SET", key, key}).str, "OK");
    }
    // Last batch rides pipelined and UNREAD: the server owes us replies at
    // drain time and must still execute + flush them out.
    std::string wire;
    for (int i = 0; i < 50; ++i) {
      EncodeBulkStringArray({"SET", "tail:" + std::to_string(i), "t"},
                            &wire);
    }
    ASSERT_TRUE(client.SendRaw(wire));
    // Give the worker a moment to read the burst off the socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server_->Stop();  // graceful drain

    std::vector<RespValue> tail = client.DrainUntilClose();
    EXPECT_EQ(tail.size(), 50u) << "drain dropped buffered commands";
    for (const RespValue& r : tail) EXPECT_EQ(r.str, "OK");
  }
  server_.reset();

  // Reopen from disk: every acked write must still be there.
  db_.reset();
  OpenDb();
  for (int i = 0; i < kWrites; ++i) {
    const std::string key = "persist:" + std::to_string(i);
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(value, key);
  }
  for (int i = 0; i < 50; ++i) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(ReadOptions(), "tail:" + std::to_string(i), &value).ok());
  }
}

class ServerScanLeakTest : public ServerTest {
 protected:
  uint64_t OpenSnapshots() {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty("pmblade.snapshots.open", &value));
    return value;
  }

  /// Starts a SCAN walk, abandons it by disconnecting, and asserts the
  /// pinned snapshot is released once the worker reaps the connection.
  void RunDisconnectMidScan() {
    StartServer();
    for (int i = 0; i < 50; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "k%02d", i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, "v").ok());
    }
    {
      RespTestClient client;
      ASSERT_TRUE(client.Connect(server_->port()));
      RespValue page = client.Command({"SCAN", "0", "COUNT", "5"});
      ASSERT_EQ(page.array.size(), 2u);
      ASSERT_NE(page.array[0].str, "0");  // walk left in flight
      EXPECT_EQ(OpenSnapshots(), 1u);
    }  // client gone; cursor abandoned mid-walk
    // The worker notices the hangup asynchronously; poll for the release.
    for (int i = 0; i < 500 && OpenSnapshots() != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(OpenSnapshots(), 0u)
        << "abandoned SCAN cursor leaked its snapshot";
  }
};

TEST_F(ServerScanLeakTest, DisconnectMidScanReleasesSnapshot) {
  RunDisconnectMidScan();
}

TEST_F(ServerScanLeakTest, ShardedDisconnectMidScanReleasesSnapshot) {
  // The sharded facade keeps a handle->per-shard-sequences map
  // (ShardedDB::snapshots_); this is the regression test that abandoned
  // cursors cannot grow it forever.
  options_.num_shards = 4;
  RunDisconnectMidScan();
}

TEST_F(ServerTest, StopIsIdempotentAndRestartableDb) {
  StartServer();
  server_->Stop();
  server_->Stop();  // second call is a no-op
  EXPECT_FALSE(server_->running());

  // The DB stays usable after the server detaches.
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "stop").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "after", &value).ok());
}

}  // namespace
}  // namespace net
}  // namespace pmblade
