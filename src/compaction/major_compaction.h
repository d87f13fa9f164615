// Major compaction (level-0 -> level-1) with three interchangeable
// scheduling engines (Section V):
//
//   kThread    — one OS thread per subtask, blocking S1/S3 I/O. This is the
//                RocksDB-style baseline of Table III / Fig. 9 ("Thread").
//   kCoroutine — compaction coroutines that suspend on their own S1/S3 I/O
//                completions ("Coroutine": basic switch-on-IO-wait policy).
//   kPmBlade   — the paper's design: per worker thread, one dedicated flush
//                coroutine owns all S3 writes (so S2 is never fragmented by
//                S3), gated by q_flush = max(q - q_comp - q_cli, 0); the
//                task splitter assigns k = max(floor(q/c), 1) compaction
//                coroutines to each of c worker threads.
//
// The compaction itself is the classic S1/S2/S3 loop: read an input block
// (S1), merge-sort and deduplicate records (S2), emit filled write buffers
// (S3). The SSD's timing comes from SsdModel; input records come from
// iterators whose SSD-resident share is charged as S1 reads; output
// SSTables are written through real files with S3 charged per write buffer.

#ifndef PMBLADE_COMPACTION_MAJOR_COMPACTION_H_
#define PMBLADE_COMPACTION_MAJOR_COMPACTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compaction/minor_compaction.h"
#include "env/ssd_model.h"
#include "memtable/internal_key.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace pmblade {

enum class CompactionEngine { kThread, kCoroutine, kPmBlade };

struct MajorCompactionOptions {
  CompactionEngine engine = CompactionEngine::kPmBlade;
  /// Number of subtasks the key range is split into.
  int concurrency = 4;
  /// c: worker threads (coroutine engines) or max parallel OS threads
  /// (thread engine).
  int worker_threads = 2;
  /// q: maximum concurrent I/O operations (drives q_flush and k).
  int max_io_q = 4;
  /// S1 granularity: an input read I/O is charged per this many SSD bytes.
  size_t read_block_bytes = 64 << 10;
  /// S3 granularity: output write buffer size.
  size_t write_block_bytes = 64 << 10;
  /// Drop tombstones in the output (true when compacting to the bottom).
  bool drop_tombstones = true;
  SequenceNumber oldest_snapshot = kMaxSequenceNumber;

  Clock* clock = nullptr;

  /// When set, Run() emits major_compaction_begin/end events and the flush
  /// gate reports q_flush transitions through the same bus.
  obs::EventBus* event_bus = nullptr;
  /// When set, Run() maintains "pmblade.compaction.major.*" counters
  /// (s1_reads, s3_writes, ssd_bytes, coroutine resumes) and the
  /// "pmblade.compaction.major.duration_nanos" histogram.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One key-range subtask's input description.
struct CompactionSubtaskInput {
  /// Produces the merged input iterator for this subtask's range, already
  /// positioned at the first record (newer sources first).
  std::function<Iterator*()> make_input;
  /// Fraction of this subtask's input bytes that reside on the SSD
  /// (level-1 inputs); drives S1 charging. 0 = pure-PM input.
  double ssd_input_fraction = 0.0;
  /// Per-subtask tombstone policy: -1 inherits
  /// MajorCompactionOptions::drop_tombstones, 0/1 force it. One Run may mix
  /// jobs whose input ranges do (bottom of the run stack) and do not reach
  /// the bottom of their partition, so the verdict is per subtask.
  int drop_tombstones = -1;
};

struct CompactionOutputMeta {
  /// Index of the subtask (in Run()'s input vector) that produced this
  /// output; subtasks that emit nothing have no meta.
  size_t subtask_index = 0;
  std::string path;
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  std::string smallest;  // internal keys
  std::string largest;
};

struct MajorCompactionStats {
  uint64_t wall_nanos = 0;
  uint64_t cpu_busy_nanos = 0;       // S2 + merge bookkeeping time
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  uint64_t s1_reads = 0;
  uint64_t s3_writes = 0;
  uint64_t ssd_bytes_written = 0;
  uint64_t io_busy_nanos = 0;        // device busy-union during compaction
  uint64_t io_service_nanos = 0;     // device service time (no queueing)
  Histogram io_latency;              // per-op latency during the compaction

  double CpuUtilization(int cores) const {
    return wall_nanos == 0
               ? 0.0
               : static_cast<double>(cpu_busy_nanos) /
                     (static_cast<double>(wall_nanos) * cores);
  }
  /// Device utilization in the paper's sense: the service time the I/O work
  /// inherently needs over the wall time it actually took — shorter walls
  /// for the same work mean the device was kept busier.
  double IoUtilization() const {
    return wall_nanos == 0 ? 0.0
                           : static_cast<double>(io_service_nanos) /
                                 static_cast<double>(wall_nanos);
  }
};

class MajorCompactor {
 public:
  /// `raw_env` is the *unsimulated* Env (the model's timing is charged
  /// explicitly at S1/S3 granularity, uniformly across engines).
  /// `sstable_opts` supplies comparator/filter/block settings and the output
  /// directory; file numbers are drawn from `factory`.
  MajorCompactor(Env* raw_env, SsdModel* model, L0TableFactory* factory,
                 const MajorCompactionOptions& options);

  /// Runs the subtasks to completion and reports the new level-1 tables.
  Status Run(const std::vector<CompactionSubtaskInput>& subtasks,
             std::vector<CompactionOutputMeta>* outputs,
             MajorCompactionStats* stats);

  const MajorCompactionOptions& options() const { return options_; }

  /// Per-subtask working state; public so the engine helper functions in the
  /// implementation file can operate on it.
  struct SubtaskState;

 private:
  Status RunThreadEngine(std::vector<SubtaskState>& states);
  Status RunCoroutineEngine(std::vector<SubtaskState>& states,
                            bool use_flush_coroutine);
  /// Deletes every output file a failed Run created (whether half-written,
  /// sealed, or not yet opened past name reservation) and clears `outputs`,
  /// so an error never strands orphan .sst files for the caller to track.
  void CleanupFailedRun(std::vector<SubtaskState>& states,
                        std::vector<CompactionOutputMeta>* outputs);

  Env* raw_env_;
  SsdModel* model_;
  L0TableFactory* factory_;
  MajorCompactionOptions options_;
  Clock* clock_;
  std::atomic<uint64_t> cpu_busy_nanos_{0};
};

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_MAJOR_COMPACTION_H_
