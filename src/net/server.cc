#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "util/clock.h"

namespace pmblade {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Pre-block poll (see server.h "Threading model"): how long a worker that
// just served a request polls before it blocks, and how long it holds off
// after the scheduler took the CPU away from a poll.
constexpr uint64_t kPollWindowNanos = 25'000;
constexpr uint64_t kPollBackoffNanos = 2'000'000;

/// Whether the calling thread may run on more than one CPU.
bool MayUseSeveralCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return true;
  return CPU_COUNT(&cpus) > 1;
}

/// Times the calling thread was preempted (involuntary context switches).
long InvoluntarySwitches() {
  rusage usage;
  if (getrusage(RUSAGE_THREAD, &usage) != 0) return 0;
  return usage.ru_nivcsw;
}

}  // namespace

// One epoll loop + its share of the connections. Only the worker thread
// touches its connection map; the acceptor communicates through
// pending_fds_ (mutex) + the eventfd.
class Server::Worker {
 public:
  Worker(Server* server, int index) : server_(server), index_(index) {}

  ~Worker() {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
  }

  Status Start() {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Errno("epoll_ctl(wake)");
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Called from the acceptor thread.
  void AddConnection(int fd) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_fds_.push_back(fd);
    }
    Wake();
  }

  /// Called from Stop(): execute what is buffered, flush, close, exit.
  void BeginDrain() {
    draining_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  size_t num_connections() const {
    return num_connections_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    int fd = -1;
    RespParser parser;
    CommandHandler::Session session;  // SCAN walk state (pinned snapshot)
    std::string out;
    size_t out_sent = 0;
    bool want_close = false;     // close once the reply buffer drains
    bool reading_paused = false; // EPOLLIN off: output cap exceeded
    bool want_write = false;     // EPOLLOUT armed

    size_t pending_out() const { return out.size() - out_sent; }

    explicit Connection(const RespParser::Limits& limits)
        : parser(limits) {}
  };

  void Wake() {
    uint64_t one = 1;
    ssize_t ignored = write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }

  void Loop() {
    epoll_event events[64];
    const uint64_t drain_deadline_slack =
        server_->options_.drain_timeout_millis * 1000000ull;
    uint64_t drain_deadline = 0;
    // Confined to one CPU, a worker never polls: the client that sends the
    // next request may be waiting for that same CPU, and a poll that misses
    // would hold it for a whole window.
    const bool may_poll = MayUseSeveralCpus();

    while (true) {
      const bool draining = draining_.load(std::memory_order_acquire);
      int n = 0;
      if (poll_armed_ && !draining) n = PollBeforeBlocking(events, 64);
      if (n == 0) n = epoll_wait(epoll_fd_, events, 64, draining ? 20 : -1);
      if (n < 0 && errno != EINTR) break;
      served_ = false;

      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          uint64_t drained;
          while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Connection& conn = it->second;
        if (conn.fd < 0) continue;  // closed earlier in this batch
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          Close(conn);
          continue;
        }
        if (events[i].events & EPOLLOUT) {
          FlushOutput(conn);
          if (conn.fd < 0) continue;  // closed during flush
        }
        if ((events[i].events & EPOLLIN) && !draining) {
          HandleReadable(conn);
        }
      }
      // Reap before adopting: a just-closed fd number may be reused by the
      // very next accept.
      ReapClosed();
      std::vector<int> adopted;
      {
        std::lock_guard<std::mutex> lock(mu_);
        adopted.swap(pending_fds_);
      }
      for (int fd : adopted) Adopt(fd);
      ReapClosed();
      poll_armed_ = served_ && may_poll;

      if (draining) {
        if (drain_deadline == 0) {
          drain_deadline =
              server_->clock_->NowNanos() + drain_deadline_slack;
          DrainBufferedCommands();
        }
        for (auto& [fd, conn] : conns_) {
          (void)fd;
          if (conn.fd < 0) continue;
          FlushOutput(conn);
          if (conn.fd >= 0 && conn.pending_out() == 0) Close(conn);
        }
        ReapClosed();
        if (conns_.empty() ||
            server_->clock_->NowNanos() > drain_deadline) {
          break;
        }
      }
    }
    // Whatever is left (drain deadline blown, or stray pending adds) is
    // closed hard.
    std::vector<int> leftover;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leftover.swap(pending_fds_);
    }
    for (int fd : leftover) {
      close(fd);
      server_->metrics_.connections_active->Add(-1);
      server_->metrics_.connections_closed->Inc();
    }
    for (auto& [fd, conn] : conns_) {
      (void)fd;
      if (conn.fd >= 0) Close(conn);
    }
    ReapClosed();
  }

  /// Polls the epoll set without blocking for up to one window, so the
  /// next request of a busy connection is picked up without the wake-up
  /// cost of a blocked epoll_wait. Returns the ready count; 0 on a miss, or
  /// without polling while backing off after a preempted poll.
  int PollBeforeBlocking(epoll_event* events, int max_events) {
    Clock* clock = SystemClock();  // real time even under a test clock
    const uint64_t start = clock->NowNanos();
    if (start < backoff_until_) return 0;
    const long preempted_before = InvoluntarySwitches();
    int n = 0;
    uint64_t now = start;
    do {
      n = epoll_wait(epoll_fd_, events, max_events, 0);
      now = clock->NowNanos();
    } while (n == 0 && now - start < kPollWindowNanos);
    ServerMetrics& m = server_->metrics_;
    m.poll_nanos->Inc(now - start);
    (n > 0 ? m.poll_hits : m.poll_misses)->Inc();
    // Another thread wanted this CPU while we spun: let it have the CPU
    // for a while rather than compete with it.
    if (InvoluntarySwitches() != preempted_before) {
      m.poll_backoffs->Inc();
      backoff_until_ = now + kPollBackoffNanos;
    }
    return n;
  }

  void Adopt(int fd) {
    SetNonBlocking(fd);
    auto [it, inserted] = conns_.emplace(
        fd, Connection(server_->options_.parser_limits));
    it->second.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      conns_.erase(it);
      close(fd);
      server_->metrics_.connections_active->Add(-1);
      server_->metrics_.connections_closed->Inc();
      return;
    }
    num_connections_.store(conns_.size(), std::memory_order_release);
    if (draining_.load(std::memory_order_acquire)) {
      // Raced with shutdown: accepted but never served.
      Close(it->second);
    }
  }

  void UpdateEpoll(Connection& conn) {
    epoll_event ev{};
    ev.events = 0;
    if (!conn.reading_paused) ev.events |= EPOLLIN;
    if (conn.want_write) ev.events |= EPOLLOUT;
    ev.data.fd = conn.fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  /// Marks the connection dead and releases its fd. The map entry survives
  /// until ReapClosed() so iterators and references held by callers up the
  /// stack stay valid; every path re-checks `conn.fd < 0` after calls that
  /// may close.
  void Close(Connection& conn) {
    const int fd = conn.fd;
    if (fd < 0) return;
    // Release the SCAN walk's pinned snapshot promptly — the map entry
    // lingers until ReapClosed(), and an abandoned cursor must not keep a
    // snapshot (and the old versions it pins) alive with it.
    conn.session.Release();
    server_->metrics_.output_backlog->Add(
        -static_cast<int64_t>(conn.pending_out()));
    conn.fd = -1;
    conn.out.clear();
    conn.out_sent = 0;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    dead_.push_back(fd);
    server_->metrics_.connections_active->Add(-1);
    server_->metrics_.connections_closed->Inc();
  }

  void ReapClosed() {
    if (dead_.empty()) return;
    for (int fd : dead_) conns_.erase(fd);
    dead_.clear();
    num_connections_.store(conns_.size(), std::memory_order_release);
  }

  void HandleReadable(Connection& conn) {
    char buf[16 << 10];
    const size_t chunk =
        std::min(sizeof(buf), server_->options_.read_chunk_bytes);
    bool peer_closed = false;
    size_t total = 0;
    while (total < server_->options_.read_chunk_bytes) {
      ssize_t n = read(conn.fd, buf, chunk);
      if (n > 0) {
        total += static_cast<size_t>(n);
        server_->metrics_.bytes_in->Inc(static_cast<uint64_t>(n));
        conn.parser.Feed(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < chunk) break;
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_closed = true;  // hard error: tear down after processing
      break;
    }

    ProcessParsedCommands(conn);
    if (conn.fd < 0) return;
    if (peer_closed) {
      // Flush whatever replies we owe, then close.
      conn.want_close = true;
    }
    FlushOutput(conn);
    if (conn.fd < 0) return;

    // Output-cap backpressure: a client that pipelines faster than it reads
    // stops being read until it catches up.
    if (!conn.reading_paused &&
        conn.pending_out() > server_->options_.max_output_buffer_bytes) {
      conn.reading_paused = true;
      server_->metrics_.read_pauses->Inc();
      UpdateEpoll(conn);
    }
    if (peer_closed && conn.fd >= 0 && conn.pending_out() == 0) {
      Close(conn);
    }
  }

  void ProcessParsedCommands(Connection& conn) {
    RespValue value;
    while (conn.fd >= 0) {
      RespParser::Result r = conn.parser.Next(&value);
      if (r == RespParser::Result::kNeedMore) break;
      if (r == RespParser::Result::kError) {
        server_->metrics_.parse_errors->Inc();
        // This -ERR counts as an error reply too: error_replies is the
        // census of every "-" line sent, parse_errors the subset that is
        // fatal to its connection.
        server_->metrics_.error_replies->Inc();
        const size_t before = conn.out.size();
        EncodeError("ERR Protocol error: " + conn.parser.error(),
                    &conn.out);
        server_->metrics_.output_backlog->Add(
            static_cast<int64_t>(conn.out.size() - before));
        conn.want_close = true;
        break;
      }
      const size_t before = conn.out.size();
      CommandHandler::Result res =
          server_->handler_->Execute(value, &conn.session, &conn.out);
      served_ = true;
      server_->metrics_.output_backlog->Add(
          static_cast<int64_t>(conn.out.size() - before));
      if (res.shutdown_server) server_->RequestShutdown();
      if (res.close_connection) {
        conn.want_close = true;
        break;
      }
    }
  }

  /// During drain: commands fully received before the shutdown are still
  /// executed ("finish in-flight") even though no new bytes are read.
  void DrainBufferedCommands() {
    for (auto& [fd, conn] : conns_) {
      (void)fd;
      if (conn.fd >= 0) ProcessParsedCommands(conn);
    }
  }

  void FlushOutput(Connection& conn) {
    while (conn.pending_out() > 0) {
      ssize_t n = write(conn.fd, conn.out.data() + conn.out_sent,
                        conn.pending_out());
      if (n > 0) {
        conn.out_sent += static_cast<size_t>(n);
        server_->metrics_.bytes_out->Inc(static_cast<uint64_t>(n));
        server_->metrics_.output_backlog->Add(-static_cast<int64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          UpdateEpoll(conn);
        }
        return;
      }
      Close(conn);  // broken pipe etc.
      return;
    }
    // Fully flushed.
    conn.out.clear();
    conn.out_sent = 0;
    bool update = false;
    if (conn.want_write) {
      conn.want_write = false;
      update = true;
    }
    if (conn.reading_paused &&
        conn.pending_out() <= server_->options_.max_output_buffer_bytes / 2) {
      conn.reading_paused = false;
      update = true;
    }
    if (conn.want_close) {
      Close(conn);
      return;
    }
    if (update) UpdateEpoll(conn);
  }

  Server* server_;
  int index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  std::mutex mu_;
  std::vector<int> pending_fds_;
  std::atomic<bool> draining_{false};
  std::atomic<size_t> num_connections_{0};

  std::unordered_map<int, Connection> conns_;
  std::vector<int> dead_;  // closed this cycle, awaiting ReapClosed()

  // Pre-block poll state; worker thread only.
  bool served_ = false;       // this loop pass executed a command
  bool poll_armed_ = false;   // the last pass served: poll before blocking
  uint64_t backoff_until_ = 0;  // SystemClock nanos; no polls before it
};

Server::Server(const ServerOptions& options, DB* db)
    : options_(options), db_(db) {
  logger_ = options_.logger != nullptr ? options_.logger : NullLogger();
  clock_ = options_.clock != nullptr ? options_.clock : SystemClock();
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::Busy("server already running");
  if (options_.num_workers < 1) options_.num_workers = 1;

  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : db_->metrics_registry();
  metrics_.Register(registry);
  handler_.reset(
      new CommandHandler(db_, options_.handler, &metrics_, clock_));

  shutdown_event_fd_ = eventfd(0, EFD_CLOEXEC);
  accept_wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (shutdown_event_fd_ < 0 || accept_wake_fd_ < 0) {
    return Errno("eventfd");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    return Errno("listen");
  }
  SetNonBlocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  handler_->AddInfoLine("tcp_port", std::to_string(port_));
  handler_->AddInfoLine("io_threads", std::to_string(options_.num_workers));

  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(new Worker(this, i));
    Status s = workers_.back()->Start();
    if (!s.ok()) {
      Stop();
      return s;
    }
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  PMBLADE_INFO(logger_, "pmblade server listening on %s:%d (%d workers)",
               options_.host.c_str(), port_, options_.num_workers);
  return Status::OK();
}

void Server::AcceptLoop() {
  int epfd = epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = accept_wake_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  epoll_event events[8];
  while (!accept_stop_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epfd, events, 8, -1);
    if (n < 0 && errno != EINTR) break;
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == listen_fd_) accept_ready = true;
      if (events[i].data.fd == accept_wake_fd_) {
        uint64_t drained;
        while (read(accept_wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      }
    }
    if (!accept_ready) continue;
    while (true) {
      int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN (or transient error): back to epoll
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      metrics_.connections_accepted->Inc();
      metrics_.connections_active->Add(1);
      const size_t target =
          next_worker_.fetch_add(1, std::memory_order_relaxed) %
          workers_.size();
      workers_[target]->AddConnection(fd);
    }
  }
  close(epfd);
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (shutdown_event_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = write(shutdown_event_fd_, &one, sizeof(one));
    (void)ignored;
  }
}

void Server::WaitForShutdownRequest() {
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    uint64_t value;
    ssize_t n = read(shutdown_event_fd_, &value, sizeof(value));
    if (n < 0 && errno != EINTR) break;
  }
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;

  // 1. Stop accepting.
  accept_stop_.store(true, std::memory_order_release);
  if (accept_wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = write(accept_wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain workers: execute buffered commands, flush replies, close.
  for (auto& worker : workers_) worker->BeginDrain();
  for (auto& worker : workers_) worker->Join();
  workers_.clear();

  // 3. Settle the engine so a follow-up Open starts clean. Acked writes are
  // already WAL-durable; this just empties the memtable into level-0.
  if (options_.flush_on_drain && db_ != nullptr && running_.load()) {
    Status s = db_->FlushMemTable();
    if (!s.ok()) {
      PMBLADE_WARN(logger_, "drain flush: %s", s.ToString().c_str());
    }
  }
  running_.store(false, std::memory_order_release);

  if (accept_wake_fd_ >= 0) {
    close(accept_wake_fd_);
    accept_wake_fd_ = -1;
  }
  if (shutdown_event_fd_ >= 0) {
    // Unblock any WaitForShutdownRequest() stragglers first.
    RequestShutdown();
    close(shutdown_event_fd_);
    shutdown_event_fd_ = -1;
  }
  PMBLADE_INFO(logger_, "pmblade server stopped");
}

}  // namespace net
}  // namespace pmblade
