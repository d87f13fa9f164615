#include "trace.h"

#include <chrono>

#include "workload.h"

namespace perfbench {

using pmblade::Slice;
using pmblade::Status;

namespace {

thread_local bool t_in_db_call = false;

// The Env span SimEnv's model sleep will close (see TraceClock).
struct PendingSpan {
  Tracer* tracer = nullptr;
  Span span;
};
thread_local PendingSpan t_pending;

void FlushPending() {
  if (t_pending.tracer != nullptr) {
    t_pending.tracer->Record(t_pending.span);
    t_pending.tracer = nullptr;
  }
}

class InDbCall {
 public:
  InDbCall() { t_in_db_call = true; }
  ~InDbCall() { t_in_db_call = false; }
  InDbCall(const InDbCall&) = delete;
  InDbCall& operator=(const InDbCall&) = delete;
};

bool IsWal(const std::string& fname) {
  return fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".log") == 0;
}

class TraceSequentialFile final : public pmblade::SequentialFile {
 public:
  TraceSequentialFile(std::unique_ptr<pmblade::SequentialFile> base,
                      const TraceEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    TraceEnv::Op op(env_, /*read=*/true, /*wal=*/false);
    return base_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<pmblade::SequentialFile> base_;
  const TraceEnv* env_;
};

class TraceRandomAccessFile final : public pmblade::RandomAccessFile {
 public:
  TraceRandomAccessFile(std::unique_ptr<pmblade::RandomAccessFile> base,
                        const TraceEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    TraceEnv::Op op(env_, /*read=*/true, /*wal=*/false);
    return base_->Read(offset, n, result, scratch);
  }

 private:
  std::unique_ptr<pmblade::RandomAccessFile> base_;
  const TraceEnv* env_;
};

class TraceWritableFile final : public pmblade::WritableFile {
 public:
  TraceWritableFile(std::unique_ptr<pmblade::WritableFile> base,
                    const TraceEnv* env, bool wal)
      : base_(std::move(base)), env_(env), wal_(wal) {}
  Status Append(const Slice& data) override {
    TraceEnv::Op op(env_, /*read=*/false, wal_);
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    if (env_->tracer()->enabled()) env_->tracer()->CountSync();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<pmblade::WritableFile> base_;
  const TraceEnv* env_;
  bool wal_;
};

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  syncs_.store(0, std::memory_order_relaxed);
  return std::move(spans_);
}

TraceEnv::Op::Op(const TraceEnv* env, bool read, bool wal) : env_(env) {
  if (!env_->tracer_->enabled()) return;
  if (!t_in_db_call) {
    kind_ = SpanKind::kEnvBgIo;
  } else if (read) {
    kind_ = SpanKind::kEnvFgRead;
  } else if (wal) {
    kind_ = SpanKind::kEnvWalAppend;
  } else {
    return;  // foreground non-WAL append (manifest on WAL rotation)
  }
  FlushPending();
  active_ = true;
  start_ = NowNanos();
}

TraceEnv::Op::~Op() {
  if (!active_) return;
  Span span{kind_, 0, start_, NowNanos()};
  if (env_->closed_by_clock_) {
    t_pending = PendingSpan{env_->tracer_, span};
  } else {
    env_->tracer_->Record(span);
  }
}

Status TraceEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<pmblade::SequentialFile>* result) {
  std::unique_ptr<pmblade::SequentialFile> file;
  Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) result->reset(new TraceSequentialFile(std::move(file), this));
  return s;
}

Status TraceEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<pmblade::RandomAccessFile>* result) {
  std::unique_ptr<pmblade::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) result->reset(new TraceRandomAccessFile(std::move(file), this));
  return s;
}

Status TraceEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<pmblade::WritableFile>* result) {
  std::unique_ptr<pmblade::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) {
    result->reset(new TraceWritableFile(std::move(file), this, IsWal(fname)));
  }
  return s;
}

uint64_t TraceClock::NowNanos() { return pmblade::SystemClock()->NowNanos(); }

void TraceClock::SleepForNanos(uint64_t nanos) {
  pmblade::SystemClock()->SleepForNanos(nanos);
  if (t_pending.tracer == tracer_ && tracer_ != nullptr) {
    t_pending.span.end = perfbench::NowNanos();
    FlushPending();
  }
}

Status TraceDB::Put(const pmblade::WriteOptions& options, const Slice& key,
                    const Slice& value) {
  if (!tracer_->enabled()) return base_->Put(options, key, value);
  InDbCall in_call;
  const uint64_t start = NowNanos();
  Status s = base_->Put(options, key, value);
  tracer_->Record(Span{SpanKind::kDbPut, KeyNumber(key), start, NowNanos()});
  return s;
}

Status TraceDB::Write(const pmblade::WriteOptions& options,
                      pmblade::WriteBatch* batch) {
  if (!tracer_->enabled()) return base_->Write(options, batch);
  InDbCall in_call;
  const uint64_t start = NowNanos();
  Status s = base_->Write(options, batch);
  tracer_->Record(Span{SpanKind::kDbWrite, 0, start, NowNanos()});
  return s;
}

Status TraceDB::Get(const pmblade::ReadOptions& options, const Slice& key,
                    std::string* value) {
  if (!tracer_->enabled()) return base_->Get(options, key, value);
  InDbCall in_call;
  const uint64_t start = NowNanos();
  Status s = base_->Get(options, key, value);
  tracer_->Record(Span{s.ok() ? SpanKind::kDbGetHit : SpanKind::kDbGetMiss,
                       KeyNumber(key), start, NowNanos()});
  return s;
}

}  // namespace perfbench
