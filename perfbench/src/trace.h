// Outside-in tracing for the traced benchmark run.
//
// Every span is recorded by a forwarding object the benchmark places at a
// layer boundary; no engine source is involved:
//   * TraceDB wraps the DB* handed to net::Server: one span per Get / Put /
//     Write, so server self time = client span - enclosed DB span.
//   * TraceEnv wraps the Env under SimEnv (and the raw Env used by major
//     compaction): WAL appends, foreground reads, background I/O, fsyncs.
//   * TraceClock is the SsdModel's clock. SimEnv charges the modelled
//     device time by sleeping on that clock right after the wrapped file
//     operation returns, so TraceEnv opens a span and TraceClock closes it
//     once the sleep ends: Env spans include the simulated device time.
// With tracing disabled every hook is one relaxed atomic load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/env.h"
#include "util/clock.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kDbGetHit,
  kDbGetMiss,
  kDbPut,
  kDbWrite,
  kEnvWalAppend,  // *.log append made inside a DB call
  kEnvFgRead,     // file read made inside a DB call
  kEnvBgIo,       // any file I/O made outside a DB call (flush, compaction)
};

struct Span {
  SpanKind kind = SpanKind::kDbGetHit;
  uint64_t key = 0;  // KeyNumber of the DB call's key; 0 when not keyed
  uint64_t start = 0;
  uint64_t end = 0;
};

/// In-memory span sink shared by every wrapper in the process.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& span);
  /// Moves out every span recorded so far and zeroes the sync count.
  std::vector<Span> Take();

  void CountSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> syncs_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

uint64_t NowNanos();

/// Forwarding Env that records spans. `closed_by_clock` is set for the
/// instance SimEnv wraps: its spans stay open until TraceClock sees the
/// model's sleep on the same thread.
class TraceEnv final : public pmblade::Env {
 public:
  TraceEnv(pmblade::Env* base, Tracer* tracer, bool closed_by_clock)
      : base_(base), tracer_(tracer), closed_by_clock_(closed_by_clock) {}

  pmblade::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<pmblade::SequentialFile>* result) override;
  pmblade::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<pmblade::RandomAccessFile>* result) override;
  pmblade::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<pmblade::WritableFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  pmblade::Status GetChildren(const std::string& dir,
                              std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  pmblade::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  pmblade::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  pmblade::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  pmblade::Status GetFileSize(const std::string& fname,
                              uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  pmblade::Status RenameFile(const std::string& src,
                             const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  /// Called by the file wrappers around every read/append.
  class Op {
   public:
    Op(const TraceEnv* env, bool read, bool wal);
    ~Op();
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

   private:
    const TraceEnv* env_;
    SpanKind kind_ = SpanKind::kEnvBgIo;
    uint64_t start_ = 0;
    bool active_ = false;
  };

  Tracer* tracer() const { return tracer_; }

 private:
  pmblade::Env* base_;
  Tracer* tracer_;
  bool closed_by_clock_;
};

/// The SsdModel's clock: forwards to the system clock and closes the Env
/// span that the model's sleep belongs to.
class TraceClock final : public pmblade::Clock {
 public:
  explicit TraceClock(Tracer* tracer) : tracer_(tracer) {}
  uint64_t NowNanos() override;
  void SleepForNanos(uint64_t nanos) override;

 private:
  Tracer* tracer_;
};

/// Forwarding DB that records one span per point operation and marks the
/// calling thread as inside a DB call, so TraceEnv can tell foreground from
/// background I/O.
class TraceDB final : public pmblade::DB {
 public:
  TraceDB(pmblade::DB* base, Tracer* tracer) : base_(base), tracer_(tracer) {}

  pmblade::Status Put(const pmblade::WriteOptions& options,
                      const pmblade::Slice& key,
                      const pmblade::Slice& value) override;
  pmblade::Status Delete(const pmblade::WriteOptions& options,
                         const pmblade::Slice& key) override {
    return base_->Delete(options, key);
  }
  pmblade::Status Write(const pmblade::WriteOptions& options,
                        pmblade::WriteBatch* batch) override;
  pmblade::Status Get(const pmblade::ReadOptions& options,
                      const pmblade::Slice& key, std::string* value) override;
  pmblade::Iterator* NewIterator(
      const pmblade::ReadOptions& options) override {
    return base_->NewIterator(options);
  }
  uint64_t GetSnapshot() override { return base_->GetSnapshot(); }
  void ReleaseSnapshot(uint64_t snapshot) override {
    base_->ReleaseSnapshot(snapshot);
  }
  pmblade::Status FlushMemTable() override { return base_->FlushMemTable(); }
  pmblade::Status CompactLevel0() override { return base_->CompactLevel0(); }
  pmblade::Status CompactToLevel1(bool respect_cost_model) override {
    return base_->CompactToLevel1(respect_cost_model);
  }
  const pmblade::DbStatistics& statistics() const override {
    return base_->statistics();
  }
  pmblade::DbStatistics& statistics() override { return base_->statistics(); }
  bool GetProperty(const std::string& property, uint64_t* value) override {
    return base_->GetProperty(property, value);
  }
  bool GetProperty(const std::string& property, std::string* value) override {
    return base_->GetProperty(property, value);
  }
  pmblade::WritePressure GetWritePressure() override {
    return base_->GetWritePressure();
  }
  uint32_t num_shards() const override { return base_->num_shards(); }
  pmblade::WritePressure GetWritePressure(const pmblade::Slice& key) override {
    return base_->GetWritePressure(key);
  }
  pmblade::WritePressure GetShardWritePressure(uint32_t shard) override {
    return base_->GetShardWritePressure(shard);
  }
  pmblade::obs::MetricsRegistry* metrics_registry() override {
    return base_->metrics_registry();
  }

 private:
  pmblade::DB* base_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
