// PmTable: the paper's compressed level-0 table (Section IV-A, Fig. 2(b)).
//
// Three-layer layout inside one PM-pool object:
//
//   [header 64 B]
//   [meta layer]   distinct "table id" key components (length-prefixed);
//                  extracted once per table instead of repeated per key
//   [prefix layer] one fixed-width slot per group: the first `prefix_width`
//                  bytes of the group's first *internal* key remainder (key
//                  with its meta component stripped), zero-padded. A user
//                  remainder shorter than the slot leaves tag bytes in it,
//                  which are little-endian, so these slots are not
//                  memcmp-comparable
//   [group index]  per group: entry-layer offset, entry count, meta id,
//                  common-prefix length (over remainders, <= prefix_width)
//   [entry layer]  per entry: varint suffix_len | varint value_len |
//                  suffix bytes | value bytes, where
//                  full_key = meta[group.meta_id] ++ slot[0:common_len] ++
//                             suffix
//
// Groups hold up to `group_size` entries (8 or 16) and never straddle a meta
// boundary. Metas are neither sorted nor unique across the table (the keys
// a, a|x, b give the metas "", "a|", ""), but each meta range (a maximal run
// of groups under one meta id) is contiguous in key order.
//
// DRAM search structures, built at open by Validate (the path every new and
// recovered table takes; one PM access per group is charged for the entry
// headers it reads, and the on-PM format is unchanged):
//   * one `prefix_width`-byte slot per group, cut from the group's first
//     *user-key* remainder (meta and tag stripped) after the bytes that all
//     first remainders of its meta range share, and zero-padded, so slot
//     order within a meta range is key order up to ties;
//   * each meta range's first full key and shared-byte count.
// Together about prefix_width/group_size bytes per key (0.5 B at the
// defaults), beside the 1.25 B/key DRAM bloom filter.
//
// Point lookup (the paper's read path): binary-search the meta ranges' first
// keys for the range that brackets the target. A target user key that
// starts with the range's meta and shared bytes binary-searches the range's
// DRAM slots with the slot cut from its rest, decoding a group's full first
// key from PM (prefix_width+16 B, one access) only when its slot ties the
// target's; one that does not sorts after every group of the range. Then
// walk the candidate group's entry headers and suffixes, skipping values,
// until the first key >= the target; only that entry's value is read.
// Get does this without an iterator; Seek shares the same group search but
// decodes the whole group for stepping.

#ifndef PMBLADE_PMTABLE_PM_TABLE_H_
#define PMBLADE_PMTABLE_PM_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "pm/pm_pool.h"
#include "pmtable/l0_table.h"
#include "util/comparator.h"

namespace pmblade {

struct PmTableOptions {
  uint32_t group_size = 16;     // entries per group (paper: 8 or 16)
  uint32_t prefix_width = 8;    // fixed slot width in bytes, <= 64
};

class PmTable : public L0Table,
                public std::enable_shared_from_this<PmTable> {
 public:
  /// Opens a PM table stored as pool object `id`. Validates the header and
  /// caches boundary keys in DRAM.
  static Status Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<PmTable>* table);

  Iterator* NewIterator() const override;
  /// Iterator-free point lookup (see the file comment). Charges the PM pool
  /// (prefix_width+16) bytes and one access per full first key the group
  /// search decodes (none when no slot ties the target's), then one access
  /// per walked group for its headers and suffixes plus the matched value.
  /// Allocates nothing once the calling thread's key buffer is warm.
  Status Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
             std::string* value, GetResult* result) const override;
  uint64_t num_entries() const override { return num_entries_; }
  uint64_t size_bytes() const override { return size_bytes_; }
  Slice smallest() const override { return smallest_; }
  Slice largest() const override { return largest_; }
  uint64_t id() const override { return id_; }
  Status Destroy() override {
    doomed_ = true;
    return Status::OK();
  }
  ~PmTable() override {
    if (doomed_) pool_->Free(id_);
  }

  /// The filter plus the group slots and the meta ranges' first keys.
  size_t dram_bytes() const override;

  uint32_t num_groups() const { return num_groups_; }
  uint32_t num_metas() const { return num_metas_; }

 private:
  friend class PmTableIter;
  PmTable() = default;

  Status Validate();

  /// The keys-only walk: each group's entry headers and suffixes, values
  /// skipped as Get skips them. Charges one PM access per group for the
  /// bytes walked.
  bool CollectKeys(FilterCollector* collector) const override;

  /// Reconstructs group `g`'s first full key into *out without decoding the
  /// rest of the group: meta ++ slot[0:common_len] ++ first entry's suffix.
  /// False on a malformed entry header. Charges nothing.
  bool DecodeGroupFirstKey(uint32_t g, std::string* out) const;

  /// Finds the last group whose first key <= target (group 0 when target
  /// precedes them all) with the DRAM search of the file comment; the first
  /// entry >= target is in that group or is the next group's first. Charges
  /// the first keys it decodes from PM. `scratch` holds the decoded keys.
  /// False on a malformed entry header.
  bool FindGroup(const Slice& target, std::string* scratch,
                 uint32_t* group) const;

  // Decoded layout pointers (into the pool mapping).
  const char* base_ = nullptr;
  const char* meta_layer_ = nullptr;
  const char* prefix_layer_ = nullptr;
  const char* group_index_ = nullptr;
  const char* entry_layer_ = nullptr;
  const char* limit_ = nullptr;

  PmPool* pool_ = nullptr;
  uint64_t id_ = 0;
  bool doomed_ = false;  // free the pool object on destruction
  uint64_t size_bytes_ = 0;
  uint32_t num_entries_ = 0;
  uint32_t num_groups_ = 0;
  uint32_t num_metas_ = 0;
  uint32_t group_size_ = 0;
  uint32_t prefix_width_ = 0;

  /// A maximal run of groups under one meta id; it ends where the next
  /// range begins.
  struct MetaRange {
    uint32_t first_group = 0;
    uint32_t meta_id = 0;
    std::string first_key;  // the first group's first internal key
    /// Leading bytes of the user remainder that every group's first key in
    /// the range shares; the DRAM slots start after them.
    size_t shared_len = 0;
  };

  // DRAM-side caches built at open.
  std::vector<Slice> metas_;        // views into the meta layer
  std::vector<MetaRange> ranges_;   // in group (and key) order
  std::string slots_;  // num_groups_ * prefix_width_ user-remainder slots
  std::string smallest_;
  std::string largest_;
};

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_PM_TABLE_H_
