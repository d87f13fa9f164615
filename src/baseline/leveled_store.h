// LeveledStore: the multi-level (L1..Lmax) SSD half of the baseline engines.
// Holds one sorted run of SSTables per level, merges incoming data into L1,
// and cascades size-triggered compactions downward (LevelDB/RocksDB-style
// leveled compaction with exponential level targets). This is where the
// conventional LSM's multi-level write amplification comes from.

#ifndef PMBLADE_BASELINE_LEVELED_STORE_H_
#define PMBLADE_BASELINE_LEVELED_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "compaction/internal_compaction.h"
#include "core/version.h"
#include "memtable/internal_key.h"
#include "pmtable/l0_table.h"

namespace pmblade {

struct LeveledStoreOptions {
  int max_levels = 6;                       // L1..L6
  uint64_t level1_target_bytes = 4ull << 20;
  double level_multiplier = 10.0;
  uint64_t target_file_bytes = 1ull << 20;  // output file size
};

class LeveledStore {
 public:
  /// `factory` must produce SSTables (L0Layout::kSstable) and is shared with
  /// the owner so file numbers never collide.
  LeveledStore(const LeveledStoreOptions& options,
               const InternalKeyComparator* icmp, L0TableFactory* factory);

  /// Merges `inputs` (newest sources first, each an internal-key iterator;
  /// ownership transferred) plus the current L1 into a new L1, then cascades
  /// overfull levels downward. `oldest_snapshot` gates version dropping.
  Status MergeIntoLevel1(std::vector<Iterator*> inputs,
                         SequenceNumber oldest_snapshot);

  /// Point lookup through the levels (top-down).
  Status Get(const LookupKey& lkey, std::string* value, bool* found,
             Status* result_status) const;

  /// One iterator per level run (newest level first), for merging with the
  /// caller's upper layers. Appends to `children`.
  void AppendIterators(std::vector<Iterator*>* children) const;

  uint64_t TotalBytes() const;
  uint64_t LevelBytes(int level) const;
  int NumLevels() const { return static_cast<int>(levels_.size()); }
  const std::vector<std::vector<L0TableRef>>& levels() const {
    return levels_;
  }

 private:
  Status CascadeCompactions(SequenceNumber oldest_snapshot);
  Status CompactLevel(int level, SequenceNumber oldest_snapshot);
  /// The merge settings for output into `output_level` (0 == L1): tombstones
  /// drop only when every level below it is empty.
  InternalCompactionOptions MergeOptions(int output_level,
                                         SequenceNumber oldest_snapshot) const;
  uint64_t TargetBytes(int level) const;

  LeveledStoreOptions options_;
  const InternalKeyComparator* icmp_;
  L0TableFactory* factory_;
  /// levels_[0] is L1; each is a non-overlapping run, ascending key order.
  std::vector<std::vector<L0TableRef>> levels_;
  std::vector<size_t> compact_cursor_;  // round-robin pick per level
};

}  // namespace pmblade

#endif  // PMBLADE_BASELINE_LEVELED_STORE_H_
