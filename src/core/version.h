// Version helpers: a partition's immutable table set with its read order,
// iterators over table runs, and run lookups shared by the DB
// implementation and the baseline engines.

#ifndef PMBLADE_CORE_VERSION_H_
#define PMBLADE_CORE_VERSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/statistics.h"
#include "memtable/internal_key.h"
#include "pmtable/l0_table.h"
#include "util/iterator.h"

namespace pmblade {

class SsdModel;

/// Concatenating iterator over a RUN: a vector of non-overlapping tables in
/// ascending key order. Seek binary-searches table boundaries, then the
/// table. The run vector is copied (shared_ptrs), so the iterator stays
/// valid across version changes.
Iterator* NewRunIterator(const InternalKeyComparator* icmp,
                         std::vector<L0TableRef> run);

/// Point lookup in a run: picks the single candidate table by boundary
/// binary search. Same out-parameters as L0TableGet (including the optional
/// bloom probe accounting).
Status RunGet(const std::vector<L0TableRef>& run,
              const InternalKeyComparator& icmp, const LookupKey& lkey,
              std::string* value, bool* found, Status* result_status,
              ReadProbeStats* probe = nullptr);

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

/// The tables of one partition at one moment. A published set is never
/// changed: an install builds a new set from the current one and swaps it
/// in, so whoever holds a set keeps seeing the same tables. The set alone
/// fixes the read order, for point lookups and iterators alike.
struct TableSet {
  std::vector<L0TableRef> unsorted;    // newest first, mutually overlapping
  std::vector<L0TableRef> sorted_run;  // ascending key order
  /// SSD run stack, newest first; level tags non-decreasing with depth.
  std::vector<SsdRun> ssd_runs;

  /// Total level-0 bytes (s_i).
  uint64_t L0Bytes() const;
  /// DRAM bytes the level-0 tables hold (L0Table::dram_bytes).
  uint64_t L0DramBytes() const;
  /// Total SSD bytes across every run in the stack (under the leveled
  /// policy, the paper's level-1 size).
  uint64_t SsdBytes() const;
  /// The deepest level tag in the run stack (0 when no SSD runs exist).
  uint32_t MaxSsdLevel() const {
    return ssd_runs.empty() ? 0 : ssd_runs.back().level;
  }

  /// Point lookup in read order: the unsorted tables newest first, the
  /// sorted run, then the SSD runs newest first. The first table holding
  /// any version of the key at the snapshot answers, as in L0TableGet
  /// (*result_status is NotFound for a tombstone). *source is kPmLevel0 or
  /// kSsdLevel1 for the tier that answered, else kNotFound. While a tier is
  /// probed, one client op is registered on its model (`level0_io` or
  /// `ssd_io`; nullptr registers none). A table read error is returned.
  Status Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
             SsdModel* level0_io, SsdModel* ssd_io, std::string* value,
             Status* result_status, ReadSource* source,
             ReadProbeStats* probe) const;

  /// Merged iterator over level-0 (when `include_l0`) and the SSD runs in
  /// [run_begin, run_end), clipped to the stack. It keeps its tables alive
  /// on its own, so it may outlive the set.
  Iterator* NewIterator(const InternalKeyComparator* icmp,
                        bool include_l0 = true, size_t run_begin = 0,
                        size_t run_end = SIZE_MAX) const;
};

/// Removes exactly the tables in `doomed` (by identity) from `from`,
/// keeping the order of the rest: how an install drops the inputs its
/// compaction snapshotted, leaving tables flushed since in place.
void RemoveTables(std::vector<L0TableRef>* from,
                  const std::vector<L0TableRef>& doomed);

/// One partition of a concatenating iterator: its exclusive end key (user
/// key; empty = unbounded) and its table set.
using PartitionTables =
    std::pair<std::string, std::shared_ptr<const TableSet>>;

/// Lazy concatenating iterator over range-disjoint partitions, in
/// ascending order: only the partition under the cursor has its tables
/// open, so a Seek costs one partition's worth of child seeks instead of
/// the whole database's.
Iterator* NewPartitionConcatIterator(const InternalKeyComparator* icmp,
                                     std::vector<PartitionTables> parts);

/// Wraps a merged internal-key iterator into the user-visible view at
/// `snapshot`: hides newer-than-snapshot entries, surfaces only the newest
/// visible version per user key, skips tombstones. Takes ownership of
/// `internal`. Shared by pmblade::DB and the baseline engines.
Iterator* NewUserIterator(Iterator* internal,
                          const InternalKeyComparator* icmp,
                          SequenceNumber snapshot);

}  // namespace pmblade

#endif  // PMBLADE_CORE_VERSION_H_
