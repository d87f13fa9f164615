// Array-snappy and Array-snappy-group tables: the compressed baselines of
// Fig. 6. Both store an offsets array like ArrayTable, but the payload is
// LZ-compressed — per key-value pair (Array-snappy) or per group of eight
// pairs (Array-snappy-group). Every key comparison during binary search must
// first decompress the pair (or the whole group), which is exactly the read
// penalty the paper measures (~2.3x over Array-based).

#ifndef PMBLADE_PMTABLE_SNAPPY_TABLE_H_
#define PMBLADE_PMTABLE_SNAPPY_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "pm/pm_pool.h"
#include "pmtable/l0_table.h"

namespace pmblade {

/// Shared implementation: `group_size` == 1 gives Array-snappy; > 1 gives
/// Array-snappy-group.
class SnappyTable : public L0Table,
                    public std::enable_shared_from_this<SnappyTable> {
 public:
  static Status Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<SnappyTable>* table);

  Iterator* NewIterator() const override;
  uint64_t num_entries() const override { return num_entries_; }
  uint64_t size_bytes() const override { return size_bytes_; }
  Slice smallest() const override { return smallest_; }
  Slice largest() const override { return largest_; }
  uint64_t id() const override { return id_; }
  Status Destroy() override {
    doomed_ = true;
    return Status::OK();
  }
  ~SnappyTable() override {
    if (doomed_) pool_->Free(id_);
  }

  uint32_t group_size() const { return group_size_; }
  uint32_t num_groups() const { return num_groups_; }

 private:
  friend class SnappyTableIter;
  SnappyTable() = default;

  Status Validate();

  /// Decompresses group `g` into *out as concatenated
  /// (varint klen | varint vlen | key | value) records; injects the PM read
  /// plus models the decompression CPU cost.
  Status LoadGroup(uint32_t g, std::string* out, uint32_t* count) const;

  PmPool* pool_ = nullptr;
  uint64_t id_ = 0;
  bool doomed_ = false;  // free the pool object on destruction
  uint64_t size_bytes_ = 0;
  uint32_t num_entries_ = 0;
  uint32_t num_groups_ = 0;
  uint32_t group_size_ = 0;
  const char* base_ = nullptr;
  const char* offsets_ = nullptr;  // num_groups+1 fixed32 offsets
  const char* data_ = nullptr;
  const char* limit_ = nullptr;
  std::string smallest_;
  std::string largest_;
};

class SnappyTableBuilder {
 public:
  /// `group_size` = 1 compresses each pair separately (Array-snappy);
  /// 8 matches the paper's Array-snappy-group.
  SnappyTableBuilder(PmPool* pool, uint32_t group_size);

  SnappyTableBuilder(const SnappyTableBuilder&) = delete;
  SnappyTableBuilder& operator=(const SnappyTableBuilder&) = delete;

  void Add(const Slice& internal_key, const Slice& value);
  Status Finish(std::shared_ptr<SnappyTable>* table);

 private:
  void SealGroup();

  PmPool* pool_;
  uint32_t group_size_;
  std::string pending_;       // uncompressed records of the open group
  uint32_t pending_count_ = 0;
  std::string group_offsets_;  // the offsets area, encoded as it lands
  std::string group_counts_;   // the group counts area, likewise
  std::string data_;
  uint32_t num_entries_ = 0;
};

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_SNAPPY_TABLE_H_
