// Partition: one key-range shard of the partitioned LSM-tree (Section III).
// A partition owns:
//   * one immutable TableSet (core/version.h), replaced whole on every
//     install:
//       - a list of UNSORTED level-0 tables (newest first, mutually
//         overlapping — flushed memtable segments),
//       - one SORTED level-0 run (non-overlapping tables, the output of the
//         last internal compaction),
//       - a stack of SSD runs (newest first; each run is non-overlapping
//         SSTables tagged with a compaction-policy level). The leveled
//         policy keeps at most one run, tagged level 1 — the paper's single
//         level-1 run; tiered / lazy-leveling policies stack several runs
//         whose level tags are non-decreasing with depth,
//   * the counters the cost models consume (n_i, n_i^r, n_i^w, n_i^u,
//     reads/sec), reset whenever the partition is compacted.

#ifndef PMBLADE_CORE_PARTITION_H_
#define PMBLADE_CORE_PARTITION_H_

#include <atomic>
#include <memory>
#include <string>

#include "compaction/cost_model.h"
#include "core/version.h"
#include "util/clock.h"

namespace pmblade {

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

  // ---- table set ----
  // The pointer is guarded by the DB mutex; the set it names never changes.
  //   * Readers and compactions copy the pointer under the mutex and use the
  //     set lock-free; a table leaving a later set is only marked for
  //     release (L0Table::Destroy frees its storage at the last ref drop),
  //     so the copies stay readable across any install.
  //   * Every install (flush, internal and major compaction, recovery)
  //     builds a new set from the current one and swaps it in under the
  //     mutex. A flush prepends its table to the unsorted list. A
  //     compaction runs only on a partition it CLAIMED (the claim protocol
  //     in db_impl.h: at most one claimant per partition), merges its
  //     snapshotted set with the mutex released, and removes exactly the
  //     snapshotted tables (RemoveTables): tables flushed during the merge
  //     stay, newest first, above its output.
  const std::shared_ptr<const TableSet>& tables() const { return tables_; }
  void set_tables(std::shared_ptr<const TableSet> tables) {
    tables_ = std::move(tables);
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
    counters.unsorted_tables = static_cast<uint32_t>(tables_->unsorted.size());
    counters.sorted_tables = static_cast<uint32_t>(tables_->sorted_run.size());
    counters.size_bytes = tables_->L0Bytes();
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

  std::shared_ptr<const TableSet> tables_ = std::make_shared<TableSet>();

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> updates_{0};
  uint64_t counter_epoch_nanos_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_PARTITION_H_
