// Internal compaction (Section IV-B): merging a partition's unsorted and
// sorted level-0 tables into a fresh run of sorted tables, entirely on PM.
// Removes read amplification (one table to search instead of n_i + 1),
// deduplicates updated keys before they reach the SSD, and frees PM space.

#ifndef PMBLADE_COMPACTION_INTERNAL_COMPACTION_H_
#define PMBLADE_COMPACTION_INTERNAL_COMPACTION_H_

#include <cstdint>
#include <vector>

#include "compaction/minor_compaction.h"
#include "memtable/internal_key.h"
#include "obs/event.h"
#include "pmtable/l0_table.h"
#include "util/clock.h"

namespace pmblade {

struct InternalCompactionStats {
  uint64_t input_tables = 0;
  uint64_t output_tables = 0;
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  uint64_t input_bytes = 0;    // PM bytes before
  uint64_t output_bytes = 0;   // PM bytes after
  uint64_t duration_nanos = 0;

  /// PM space released (Table IV's metric).
  int64_t bytes_released() const {
    return static_cast<int64_t>(input_bytes) -
           static_cast<int64_t>(output_bytes);
  }
};

struct InternalCompactionOptions {
  /// Split output into tables of roughly this size.
  uint64_t target_table_bytes = 8ull << 20;
  /// Drop tombstones when true (safe only if no older data exists below
  /// level-0 for this partition's range).
  bool drop_tombstones = false;
  /// Drop versions older than this snapshot floor (0 keeps only the newest
  /// version of each user key plus anything a live snapshot may need).
  SequenceNumber oldest_snapshot = kMaxSequenceNumber;
  Clock* clock = nullptr;
  /// When set (and active), an internal_compaction_end event is emitted on
  /// success with the stats below. `partition_id` labels that event.
  obs::EventBus* event_bus = nullptr;
  uint64_t partition_id = 0;
};

/// The merge pipeline of internal compaction and of the baseline engines'
/// leveled compactions (major compaction runs the same retention rule in
/// its S1/S2/S3 loop): merges `inputs` (internal-key iterators, newer sources first; ownership taken),
/// keeps the versions VersionRetention keeps under `options`'
/// `oldest_snapshot` and `drop_tombstones`, and cuts them into tables of
/// about `options.target_table_bytes` built by `factory`. On failure
/// (including Corruption for an unparseable key) it destroys the tables it
/// built and leaves `outputs` empty.
Status MergeToTables(const InternalCompactionOptions& options,
                     const InternalKeyComparator& icmp,
                     std::vector<Iterator*> inputs, L0TableFactory* factory,
                     std::vector<L0TableRef>* outputs);

/// Merges `inputs` (any mix of sorted/unsorted L0 tables; *newer tables must
/// come first* so the merge keeps the newest version on ties) into new
/// tables built by `factory` (MergeToTables). On success fills `outputs`
/// and `stats`. The inputs are NOT destroyed; the caller swaps them out of
/// its version and destroys them after the new tables are installed.
Status RunInternalCompaction(const InternalCompactionOptions& options,
                             const InternalKeyComparator& icmp,
                             const std::vector<L0TableRef>& inputs,
                             L0TableFactory* factory,
                             std::vector<L0TableRef>* outputs,
                             InternalCompactionStats* stats);

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_INTERNAL_COMPACTION_H_
