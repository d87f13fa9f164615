#include "compaction/major_compaction.h"

#include <atomic>
#include <deque>
#include <optional>
#include <string>
#include <thread>

#include "compaction/version_retention.h"
#include "coro/io_gate.h"
#include "coro/scheduler.h"
#include "coro/task.h"
#include "env/filename.h"
#include "sstable/table_builder.h"

namespace pmblade {

namespace {

/// Records processed per S2 slice before the coroutine yields.
constexpr int kRecordsPerSlice = 64;

/// WritableFile wrapper that forwards to the real file and reports every
/// `chunk_bytes` of accumulated output, so engines can charge/schedule S3 at
/// write-buffer granularity.
class ChunkingFile final : public WritableFile {
 public:
  ChunkingFile(WritableFile* base, size_t chunk_bytes,
               std::function<void(size_t)> on_chunk)
      : base_(base), chunk_bytes_(chunk_bytes), on_chunk_(std::move(on_chunk)) {}

  Status Append(const Slice& data) override {
    Status s = base_->Append(data);
    if (!s.ok()) return s;
    pending_ += data.size();
    while (pending_ >= chunk_bytes_) {
      on_chunk_(chunk_bytes_);
      pending_ -= chunk_bytes_;
    }
    return s;
  }

  /// Charges the final partial write buffer.
  void FlushPartialChunk() {
    if (pending_ > 0) {
      on_chunk_(pending_);
      pending_ = 0;
    }
  }

  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  WritableFile* base_;
  size_t chunk_bytes_;
  std::function<void(size_t)> on_chunk_;
  size_t pending_ = 0;
};

}  // namespace

struct MajorCompactor::SubtaskState {
  // Input.
  std::unique_ptr<Iterator> input;
  double ssd_fraction = 0.0;

  // Output chain: builder -> chunk_file -> raw_file.
  std::unique_ptr<WritableFile> raw_file;
  std::unique_ptr<ChunkingFile> chunk_file;
  std::unique_ptr<TableBuilder> builder;
  CompactionOutputMeta meta;

  void CloseFile() {
    if (raw_file != nullptr) raw_file->Close();
    raw_file.reset();
  }

  // S3 chunks awaiting I/O charge (filled by the chunk callback, drained by
  // the engine's S3 policy).
  std::vector<size_t> pending_chunks;

  // Which versions survive, with the subtask's resolved tombstone verdict
  // (see CompactionSubtaskInput::drop_tombstones).
  std::optional<VersionRetention> retention;

  // S1 charging.
  double ssd_bytes_consumed = 0.0;
  double ssd_bytes_charged = 0.0;

  // S2 CPU-work accounting (thread engine; coroutine engines use the
  // scheduler's resume-slice clock instead).
  uint64_t cpu_work_nanos = 0;

  // Counters.
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  uint64_t s1_reads = 0;
  uint64_t s3_writes = 0;
  uint64_t ssd_bytes_written = 0;
  uint64_t io_wait_nanos = 0;  // thread engine: time slept in blocking I/O

  Status status;
};

// A failed Run must not leave its output files behind: the manifest never
// references them, so they would survive as orphans until a manual cleanup.
// Abandon whatever each builder buffered, release still-open file handles,
// and unlink every path this run created — including outputs that were
// already sealed before a later subtask failed. Removal errors are ignored:
// this is best-effort tidying on an already-failing path, and the startup GC
// sweeps anything that slips through.
void MajorCompactor::CleanupFailedRun(
    std::vector<SubtaskState>& states,
    std::vector<CompactionOutputMeta>* outputs) {
  for (SubtaskState& st : states) {
    if (st.builder != nullptr) st.builder->Abandon();
    st.CloseFile();
    if (!st.meta.path.empty()) {
      raw_env_->RemoveFile(st.meta.path);
    }
  }
  outputs->clear();
}

MajorCompactor::MajorCompactor(Env* raw_env, SsdModel* model,
                               L0TableFactory* factory,
                               const MajorCompactionOptions& options)
    : raw_env_(raw_env),
      model_(model),
      factory_(factory),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : SystemClock()) {}

Status MajorCompactor::Run(
    const std::vector<CompactionSubtaskInput>& subtasks,
    std::vector<CompactionOutputMeta>* outputs, MajorCompactionStats* stats) {
  outputs->clear();
  *stats = MajorCompactionStats{};
  cpu_busy_nanos_.store(0);
  const uint64_t io_busy_before = model_->BusyNanos();
  const uint64_t io_service_before = model_->ServiceNanos();
  const uint64_t start = clock_->NowNanos();

  // Prepare subtask states: inputs, output files, builders.
  std::vector<SubtaskState> states(subtasks.size());
  const L0FactoryOptions& fopts = factory_->options();
  for (size_t i = 0; i < subtasks.size(); ++i) {
    SubtaskState& st = states[i];
    st.input.reset(subtasks[i].make_input());
    st.ssd_fraction = subtasks[i].ssd_input_fraction;
    st.retention.emplace(fopts.icmp->user_comparator(),
                         options_.oldest_snapshot,
                         subtasks[i].drop_tombstones < 0
                             ? options_.drop_tombstones
                             : subtasks[i].drop_tombstones != 0);
    st.meta.subtask_index = i;

    st.meta.file_number = factory_->NextFileNumber();
    st.meta.path = SstFileName(fopts.ssd_dir, st.meta.file_number);
    Status open_status = raw_env_->NewWritableFile(st.meta.path, &st.raw_file);
    if (!open_status.ok()) {
      CleanupFailedRun(states, outputs);
      return open_status;
    }
    SubtaskState* stp = &st;
    st.chunk_file.reset(new ChunkingFile(
        st.raw_file.get(), options_.write_block_bytes,
        [stp](size_t bytes) { stp->pending_chunks.push_back(bytes); }));
    TableBuilderOptions topts;
    topts.comparator = fopts.icmp;
    topts.filter_policy = fopts.filter_policy;
    st.builder.reset(new TableBuilder(topts, st.chunk_file.get()));
  }

  if (options_.event_bus != nullptr && options_.event_bus->active()) {
    options_.event_bus->Emit(
        obs::Event(obs::EventType::kMajorCompactionBegin, start)
            .With("subtasks", static_cast<double>(subtasks.size()))
            .With("engine", static_cast<double>(options_.engine))
            .With("worker_threads", options_.worker_threads)
            .With("max_io_q", options_.max_io_q));
  }

  Status s;
  switch (options_.engine) {
    case CompactionEngine::kThread:
      s = RunThreadEngine(states);
      break;
    case CompactionEngine::kCoroutine:
      s = RunCoroutineEngine(states, /*use_flush_coroutine=*/false);
      break;
    case CompactionEngine::kPmBlade:
      s = RunCoroutineEngine(states, /*use_flush_coroutine=*/true);
      break;
  }
  if (!s.ok()) {
    CleanupFailedRun(states, outputs);
    return s;
  }

  // Seal outputs (install point: only now do the new tables become real).
  for (SubtaskState& st : states) {
    if (!st.status.ok()) {
      CleanupFailedRun(states, outputs);
      return st.status;
    }
    if (st.output_records == 0) {
      st.builder->Abandon();
      st.CloseFile();
      raw_env_->RemoveFile(st.meta.path);
      st.meta.path.clear();
      continue;
    }
    st.meta.file_size = st.builder->FileSize();
    st.meta.num_entries = st.builder->NumEntries();
    Status seal = st.raw_file->Sync();
    if (seal.ok()) {
      seal = st.raw_file->Close();
      st.raw_file.reset();  // Close releases the handle even on error
    }
    if (!seal.ok()) {
      CleanupFailedRun(states, outputs);
      return seal;
    }
    outputs->push_back(st.meta);
    stats->input_records += st.input_records;
    stats->output_records += st.output_records;
    stats->s1_reads += st.s1_reads;
    stats->s3_writes += st.s3_writes;
    stats->ssd_bytes_written += st.ssd_bytes_written;
  }
  // Empty subtasks still contribute their counters.
  for (SubtaskState& st : states) {
    if (st.output_records == 0) {
      stats->input_records += st.input_records;
      stats->s1_reads += st.s1_reads;
      stats->s3_writes += st.s3_writes;
    }
  }

  stats->wall_nanos = clock_->NowNanos() - start;
  stats->cpu_busy_nanos = cpu_busy_nanos_.load();
  stats->io_busy_nanos = model_->BusyNanos() - io_busy_before;
  stats->io_service_nanos = model_->ServiceNanos() - io_service_before;
  stats->io_latency = model_->LatencySnapshot();

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m->GetCounter("pmblade.compaction.major.s1_reads")->Inc(stats->s1_reads);
    m->GetCounter("pmblade.compaction.major.s3_writes")->Inc(stats->s3_writes);
    m->GetCounter("pmblade.compaction.major.ssd_bytes")
        ->Inc(stats->ssd_bytes_written);
    m->GetHistogram("pmblade.compaction.major.duration_nanos")
        ->Observe(stats->wall_nanos);
  }
  if (options_.event_bus != nullptr && options_.event_bus->active()) {
    options_.event_bus->Emit(
        obs::Event(obs::EventType::kMajorCompactionEnd, clock_->NowNanos())
            .With("wall_nanos", static_cast<double>(stats->wall_nanos))
            .With("input_records", static_cast<double>(stats->input_records))
            .With("output_records",
                  static_cast<double>(stats->output_records))
            .With("s1_reads", static_cast<double>(stats->s1_reads))
            .With("s3_writes", static_cast<double>(stats->s3_writes))
            .With("ssd_bytes_written",
                  static_cast<double>(stats->ssd_bytes_written))
            .With("io_busy_nanos", static_cast<double>(stats->io_busy_nanos))
            .With("cpu_busy_nanos",
                  static_cast<double>(stats->cpu_busy_nanos)));
  }
  return Status::OK();
}

namespace {

/// Processes up to kRecordsPerSlice records of `st` through the retention
/// rule into the builder. Returns false when the input is exhausted.
/// Shared by all engines (this is the S2 work).
bool ProcessSlice(MajorCompactor::SubtaskState* st) {
  Iterator* in = st->input.get();
  int processed = 0;
  while (in->Valid() && processed < kRecordsPerSlice) {
    bool keep = false;
    Status decided = st->retention->Decide(in->key(), &keep);
    if (!decided.ok()) {
      st->status = std::move(decided);
      return false;
    }
    ++st->input_records;
    ++processed;
    st->ssd_bytes_consumed +=
        st->ssd_fraction * (in->key().size() + in->value().size());
    if (keep) {
      if (st->output_records == 0) st->meta.smallest = in->key().ToString();
      st->meta.largest = in->key().ToString();
      st->builder->Add(in->key(), in->value());
      ++st->output_records;
    }
    in->Next();
  }
  if (!in->Valid()) {
    Status s = in->status();
    if (!s.ok()) st->status = s;
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Thread engine
// ---------------------------------------------------------------------------

Status MajorCompactor::RunThreadEngine(std::vector<SubtaskState>& states) {
  std::vector<std::thread> threads;
  threads.reserve(states.size());

  for (SubtaskState& st : states) {
    threads.emplace_back([this, &st] {
      bool more = true;
      while (more) {
        {
          ScopedTimer timer(clock_, &st.cpu_work_nanos);
          more = ProcessSlice(&st);
        }
        if (!st.status.ok()) break;
        // S1: blocking reads for consumed SSD bytes.
        while (st.ssd_bytes_consumed - st.ssd_bytes_charged >=
               options_.read_block_bytes) {
          st.io_wait_nanos +=
              model_->OnRead(options_.read_block_bytes, IoClass::kCompaction);
          st.ssd_bytes_charged += options_.read_block_bytes;
          ++st.s1_reads;
        }
        // S3: blocking writes for every full write buffer.
        for (size_t chunk : st.pending_chunks) {
          st.io_wait_nanos += model_->OnWrite(chunk, IoClass::kFlush);
          st.ssd_bytes_written += chunk;
          ++st.s3_writes;
        }
        st.pending_chunks.clear();
      }
      if (st.status.ok()) {
        {
          ScopedTimer timer(clock_, &st.cpu_work_nanos);
          Status fs = st.builder->Finish();
          if (!fs.ok()) st.status = fs;
          st.chunk_file->FlushPartialChunk();
        }
        for (size_t chunk : st.pending_chunks) {
          st.io_wait_nanos += model_->OnWrite(chunk, IoClass::kFlush);
          st.ssd_bytes_written += chunk;
          ++st.s3_writes;
        }
        st.pending_chunks.clear();
      }
      cpu_busy_nanos_.fetch_add(st.cpu_work_nanos);
    });
  }
  for (auto& t : threads) t.join();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Coroutine engines
// ---------------------------------------------------------------------------

namespace {

struct WorkerContext {
  CoroScheduler* scheduler = nullptr;
  SsdModel* model = nullptr;
  IoGate* gate = nullptr;
  const MajorCompactionOptions* options = nullptr;

  std::deque<MajorCompactor::SubtaskState*> queue;  // unclaimed subtasks
  int active_compaction_coroutines = 0;

  // Flush-coroutine plumbing (PM-Blade engine only).
  std::deque<std::pair<MajorCompactor::SubtaskState*, size_t>> flush_queue;
  std::unique_ptr<CoroScheduler::Event> flush_event;
  bool use_flush_coroutine = false;
};

/// S3 policy for the naive coroutine engine: the producing coroutine awaits
/// its own writes. For PM-Blade, chunks go to the flush queue instead.
Task CompactionCoroutine(WorkerContext* ctx) {
  ++ctx->active_compaction_coroutines;
  while (!ctx->queue.empty()) {
    MajorCompactor::SubtaskState* st = ctx->queue.front();
    ctx->queue.pop_front();

    bool more = true;
    while (more) {
      // S2: merge a slice of records.
      more = ProcessSlice(st);
      if (!st->status.ok()) break;

      // S1: await reads covering consumed SSD input bytes.
      while (st->ssd_bytes_consumed - st->ssd_bytes_charged >=
             ctx->options->read_block_bytes) {
        auto ticket = ctx->model->BeginIo(false, ctx->options->read_block_bytes,
                                          IoClass::kCompaction);
        co_await ctx->scheduler->SleepUntil(ticket.complete_at_nanos);
        ctx->model->EndIo(ticket);
        st->ssd_bytes_charged += ctx->options->read_block_bytes;
        ++st->s1_reads;
      }

      // S3: per engine policy.
      if (!st->pending_chunks.empty()) {
        if (ctx->use_flush_coroutine) {
          for (size_t chunk : st->pending_chunks) {
            ctx->flush_queue.emplace_back(st, chunk);
          }
          st->pending_chunks.clear();
          ctx->flush_event->NotifyAll();
        } else {
          for (size_t chunk : st->pending_chunks) {
            auto ticket = ctx->model->BeginIo(true, chunk, IoClass::kFlush);
            co_await ctx->scheduler->SleepUntil(ticket.complete_at_nanos);
            ctx->model->EndIo(ticket);
            st->ssd_bytes_written += chunk;
            ++st->s3_writes;
          }
          st->pending_chunks.clear();
        }
      }

      // Interleave with the other compaction coroutines on this worker.
      co_await ctx->scheduler->Yield();
    }

    if (st->status.ok()) {
      Status fs = st->builder->Finish();
      if (!fs.ok()) st->status = fs;
      st->chunk_file->FlushPartialChunk();
      if (ctx->use_flush_coroutine) {
        for (size_t chunk : st->pending_chunks) {
          ctx->flush_queue.emplace_back(st, chunk);
        }
        st->pending_chunks.clear();
        ctx->flush_event->NotifyAll();
      } else {
        for (size_t chunk : st->pending_chunks) {
          auto ticket = ctx->model->BeginIo(true, chunk, IoClass::kFlush);
          co_await ctx->scheduler->SleepUntil(ticket.complete_at_nanos);
          ctx->model->EndIo(ticket);
          st->ssd_bytes_written += chunk;
          ++st->s3_writes;
        }
        st->pending_chunks.clear();
      }
    }
  }
  --ctx->active_compaction_coroutines;
  if (ctx->flush_event != nullptr) {
    ctx->flush_event->NotifyAll();  // let the flush coroutine re-check exit
  }
}

/// The dedicated flush coroutine (PM-Blade): drains S3 writes, keeping up
/// to q_flush = max(q - q_comp - q_cli, 0) writes in flight so the device
/// stays busy whenever foreground traffic leaves it headroom.
Task FlushCoroutine(WorkerContext* ctx) {
  // Poll quantum when the gate is closed; short relative to I/O latencies.
  constexpr uint64_t kGatePollNanos = 5'000;
  struct Inflight {
    SsdModel::Ticket ticket;
    MajorCompactor::SubtaskState* st;
    size_t chunk;
  };
  std::vector<Inflight> inflight;

  while (true) {
    // Issue as many writes as the gate allows.
    while (!ctx->flush_queue.empty() && ctx->gate->FlushBudget() > 0) {
      auto [st, chunk] = ctx->flush_queue.front();
      ctx->flush_queue.pop_front();
      inflight.push_back(
          Inflight{ctx->model->BeginIo(true, chunk, IoClass::kFlush), st,
                   chunk});
    }

    if (!inflight.empty()) {
      // Await the earliest completion, then retire everything due.
      uint64_t earliest = UINT64_MAX;
      for (const auto& io : inflight) {
        earliest = std::min(earliest, io.ticket.complete_at_nanos);
      }
      co_await ctx->scheduler->SleepUntil(earliest);
      uint64_t now = ctx->scheduler->clock()->NowNanos();
      for (size_t i = 0; i < inflight.size();) {
        if (inflight[i].ticket.complete_at_nanos <= now) {
          ctx->model->EndIo(inflight[i].ticket);
          inflight[i].st->ssd_bytes_written += inflight[i].chunk;
          ++inflight[i].st->s3_writes;
          inflight[i] = inflight.back();
          inflight.pop_back();
        } else {
          ++i;
        }
      }
      continue;
    }

    if (ctx->flush_queue.empty()) {
      if (ctx->active_compaction_coroutines == 0) break;
      co_await *ctx->flush_event;
      continue;
    }
    // Queue non-empty but the gate is closed: back off briefly.
    co_await ctx->scheduler->SleepFor(kGatePollNanos);
  }
}

}  // namespace

Status MajorCompactor::RunCoroutineEngine(std::vector<SubtaskState>& states,
                                          bool use_flush_coroutine) {
  const int c = std::max(options_.worker_threads, 1);
  // k = max(floor(q / c), 1) compaction coroutines per worker.
  const int k = std::max(options_.max_io_q / c, 1);

  std::vector<std::thread> workers;
  for (int w = 0; w < c; ++w) {
    workers.emplace_back([this, w, c, k, &states, use_flush_coroutine] {
      CoroScheduler scheduler(clock_);
      IoGate gate(model_, options_.max_io_q, options_.event_bus);
      WorkerContext ctx;
      ctx.scheduler = &scheduler;
      ctx.model = model_;
      ctx.gate = &gate;
      ctx.options = &options_;
      ctx.use_flush_coroutine = use_flush_coroutine;
      ctx.flush_event.reset(new CoroScheduler::Event(&scheduler));

      // Round-robin assignment of subtasks to workers.
      for (size_t i = w; i < states.size(); i += c) {
        ctx.queue.push_back(&states[i]);
      }
      if (ctx.queue.empty()) return;

      int spawned = std::min<int>(k, static_cast<int>(ctx.queue.size()));
      for (int i = 0; i < spawned; ++i) {
        scheduler.Spawn(CompactionCoroutine(&ctx));
      }
      if (use_flush_coroutine) {
        scheduler.Spawn(FlushCoroutine(&ctx));
      }
      scheduler.Run();
      cpu_busy_nanos_.fetch_add(scheduler.cpu_busy_nanos());
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter("pmblade.compaction.major.coro_resumes")
            ->Inc(scheduler.resumes());
      }
    });
  }
  for (auto& t : workers) t.join();
  return Status::OK();
}

}  // namespace pmblade
