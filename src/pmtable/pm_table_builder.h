// PmTableBuilder: assembles the three-layer PM table from a sorted
// internal-key entry stream and lands it in the PM pool with a single
// streaming write + persist (the flush path of minor compaction). The open
// group waits in one reused buffer; sealed groups go straight to the layer
// buffers, and Finish gathers the header and layers into the exact pool
// object, so there is no whole-table image in DRAM.

#ifndef PMBLADE_PMTABLE_PM_TABLE_BUILDER_H_
#define PMBLADE_PMTABLE_PM_TABLE_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "pm/pm_pool.h"
#include "pmtable/pm_table.h"

namespace pmblade {

class PmTableBuilder {
 public:
  PmTableBuilder(PmPool* pool, const PmTableOptions& options);

  PmTableBuilder(const PmTableBuilder&) = delete;
  PmTableBuilder& operator=(const PmTableBuilder&) = delete;

  /// Adds one entry; internal keys must arrive in ascending internal order.
  void Add(const Slice& internal_key, const Slice& value);

  /// Allocates the pool object, gathers the header and layers into it,
  /// persists it and opens the resulting table. Charges the PM
  /// write-bandwidth cost.
  Status Finish(std::shared_ptr<PmTable>* table);

  uint64_t num_entries() const { return num_entries_; }
  /// Uncompressed payload bytes added so far (keys + values).
  uint64_t raw_bytes() const { return raw_bytes_; }

 private:
  /// An entry of the open group: its internal key and value lie back to
  /// back in group_buf_ from `offset`.
  struct PendingEntry {
    uint32_t offset;
    uint32_t key_len;
    uint32_t value_len;
  };

  Slice PendingKey(const PendingEntry& e) const {
    return Slice(group_buf_.data() + e.offset, e.key_len);
  }

  void SealGroup();

  PmPool* pool_;
  PmTableOptions options_;

  // Current (unsealed) group; both buffers keep their capacity across
  // groups.
  std::string group_buf_;
  std::vector<PendingEntry> group_entries_;
  std::vector<Slice> remainders_;
  uint32_t group_meta_id_ = 0;

  // Accumulated layers.
  std::vector<std::string> metas_;
  std::string prefix_layer_;
  std::string group_index_;
  std::string entry_layer_;
  uint32_t num_groups_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t raw_bytes_ = 0;
};

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_PM_TABLE_BUILDER_H_
