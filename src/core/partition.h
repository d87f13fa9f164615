// Partition: one key-range shard of the partitioned LSM-tree (Section III).
// A partition owns:
//   * a list of UNSORTED level-0 tables (newest first, mutually
//     overlapping — flushed memtable segments),
//   * one SORTED level-0 run (non-overlapping tables, the output of the
//     last internal compaction),
//   * a stack of SSD runs (newest first; each run is non-overlapping
//     SSTables tagged with a compaction-policy level). The leveled policy
//     keeps at most one run, tagged level 1 — the paper's single level-1
//     run; tiered / lazy-leveling policies stack several runs whose level
//     tags are non-decreasing with depth,
//   * the counters the cost models consume (n_i, n_i^r, n_i^w, n_i^u,
//     reads/sec), reset whenever the partition is compacted.

#ifndef PMBLADE_CORE_PARTITION_H_
#define PMBLADE_CORE_PARTITION_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "memtable/internal_key.h"
#include "pmtable/l0_table.h"
#include "util/clock.h"

namespace pmblade {

/// One sorted run of SSD SSTables (ascending key order) plus its policy
/// level tag. Level 0 is the PM side; SSD runs start at level 1.
struct SsdRun {
  uint32_t level = 1;
  std::vector<L0TableRef> tables;  // ascending key order

  uint64_t bytes() const {
    uint64_t total = 0;
    for (const auto& table : tables) total += table->size_bytes();
    return total;
  }
};

class Partition {
 public:
  /// `begin` inclusive, `end` exclusive over user keys; empty begin = -inf,
  /// empty end = +inf.
  Partition(uint64_t id, std::string begin, std::string end, Clock* clock)
      : id_(id), begin_(std::move(begin)), end_(std::move(end)),
        clock_(clock), counter_epoch_nanos_(clock->NowNanos()) {}

  uint64_t id() const { return id_; }
  const std::string& begin_key() const { return begin_; }
  const std::string& end_key() const { return end_; }

  // ---- table sets ----
  // Ref discipline with a background compaction in flight (every access to
  // the vectors themselves happens under the DB mutex):
  //   * Readers copy the ref vectors under the mutex and probe lock-free;
  //     the deferred L0Table::Destroy (storage freed at last ref drop)
  //     keeps those copies valid across any concurrent install.
  //   * The flush thread only PREPENDS to unsorted() (newest first).
  //   * Only the compaction worker that CLAIMED this partition (see the
  //     claim protocol in db_impl.h — at most one claimant per partition,
  //     enforced under the DB mutex) removes from unsorted() or mutates
  //     sorted_run()/ssd_runs(). A compaction therefore snapshots the
  //     vectors, merges with the mutex released, and installs by removing
  //     exactly the snapshotted refs (RemoveTables) — tables flushed during
  //     the merge stay, still newest-first, above the compaction's output.
  std::vector<L0TableRef>& unsorted() { return unsorted_; }
  std::vector<L0TableRef>& sorted_run() { return sorted_run_; }
  std::vector<SsdRun>& ssd_runs() { return ssd_runs_; }
  const std::vector<L0TableRef>& unsorted() const { return unsorted_; }
  const std::vector<L0TableRef>& sorted_run() const { return sorted_run_; }
  const std::vector<SsdRun>& ssd_runs() const { return ssd_runs_; }

  /// Removes exactly the tables in `snapshot` (by table identity) from
  /// `from`, preserving the order of everything else. Install step of a
  /// compaction whose inputs were snapshotted before the mutex was
  /// released; entries that arrived since (flushed tables at the front of
  /// unsorted()) are untouched. Caller holds the DB mutex.
  static void RemoveTables(std::vector<L0TableRef>* from,
                           const std::vector<L0TableRef>& snapshot) {
    from->erase(std::remove_if(from->begin(), from->end(),
                               [&snapshot](const L0TableRef& table) {
                                 for (const auto& snap : snapshot) {
                                   if (snap.get() == table.get()) return true;
                                 }
                                 return false;
                               }),
                from->end());
  }

  /// Total level-0 bytes (s_i).
  uint64_t L0Bytes() const {
    uint64_t total = 0;
    for (const auto& table : unsorted_) total += table->size_bytes();
    for (const auto& table : sorted_run_) total += table->size_bytes();
    return total;
  }
  /// DRAM bytes the level-0 tables hold (L0Table::dram_bytes).
  uint64_t L0DramBytes() const {
    uint64_t total = 0;
    for (const auto& table : unsorted_) total += table->dram_bytes();
    for (const auto& table : sorted_run_) total += table->dram_bytes();
    return total;
  }
  /// Total SSD bytes across every run in the stack. (Under the leveled
  /// policy the stack is at most one level-1 run, so this is the paper's
  /// level-1 size.)
  uint64_t SsdBytes() const {
    uint64_t total = 0;
    for (const auto& run : ssd_runs_) total += run.bytes();
    return total;
  }

  /// The deepest level tag in the run stack (0 when no SSD runs exist).
  uint32_t MaxSsdLevel() const {
    return ssd_runs_.empty() ? 0 : ssd_runs_.back().level;
  }

  // ---- cost-model counters ----
  // Lock-free: readers bump NoteRead under the DB mutex, but the group-commit
  // leader runs NoteWrite outside it (the Eq. 2 probe happens in the
  // unlocked WAL/memtable section of the write pipeline).
  void NoteRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void NoteWrite(bool is_update) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (is_update) updates_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Snapshot of counters in the cost model's shape.
  PartitionCounters Counters() const {
    PartitionCounters counters;
    counters.partition_id = id_;
    counters.unsorted_tables = static_cast<uint32_t>(unsorted_.size());
    counters.sorted_tables = static_cast<uint32_t>(sorted_run_.size());
    counters.size_bytes = L0Bytes();
    counters.reads = reads_.load(std::memory_order_relaxed);
    counters.writes = writes_.load(std::memory_order_relaxed);
    counters.updates = updates_.load(std::memory_order_relaxed);
    uint64_t elapsed = clock_->NowNanos() - counter_epoch_nanos_;
    counters.reads_per_sec =
        elapsed > 0 ? static_cast<double>(counters.reads) * 1e9 / elapsed
                    : 0.0;
    return counters;
  }

  /// Called after any compaction touches this partition ("re-zeroed when a
  /// major compaction or internal compaction occurs").
  void ResetCounters() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
    counter_epoch_nanos_ = clock_->NowNanos();
  }

 private:
  uint64_t id_;
  std::string begin_;
  std::string end_;
  Clock* clock_;

  std::vector<L0TableRef> unsorted_;   // newest first
  std::vector<L0TableRef> sorted_run_; // ascending key order
  /// SSD run stack, newest first; level tags non-decreasing with depth.
  std::vector<SsdRun> ssd_runs_;

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> updates_{0};
  uint64_t counter_epoch_nanos_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_PARTITION_H_
