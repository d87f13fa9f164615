// ArrayTable: the uncompressed array-based PM table the paper compares
// against (MatrixKV-style [9]): a metadata array of fixed-width offsets plus
// a data array of sorted key-value pairs. A binary-search probe touches PM
// twice — once for the offset, once for the entry — which is exactly the
// access-count disadvantage the PM table's prefix layer removes.

#ifndef PMBLADE_PMTABLE_ARRAY_TABLE_H_
#define PMBLADE_PMTABLE_ARRAY_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "pm/pm_pool.h"
#include "pmtable/l0_table.h"

namespace pmblade {

class ArrayTable : public L0Table,
                   public std::enable_shared_from_this<ArrayTable> {
 public:
  static Status Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<ArrayTable>* table);

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
  ~ArrayTable() override {
    if (doomed_) pool_->Free(id_);
  }

 private:
  friend class ArrayTableIter;
  friend class ArrayTableBuilder;
  ArrayTable() = default;

  Status Validate();

  /// Decodes entry `i`; returns false on corruption.
  bool DecodeEntry(uint32_t i, Slice* key, Slice* value) const;

  PmPool* pool_ = nullptr;
  uint64_t id_ = 0;
  bool doomed_ = false;  // free the pool object on destruction
  uint64_t size_bytes_ = 0;
  uint32_t num_entries_ = 0;
  const char* base_ = nullptr;
  const char* offsets_ = nullptr;  // num_entries fixed32 offsets
  const char* data_ = nullptr;
  const char* limit_ = nullptr;
  std::string smallest_;
  std::string largest_;
};

class ArrayTableBuilder {
 public:
  explicit ArrayTableBuilder(PmPool* pool);

  ArrayTableBuilder(const ArrayTableBuilder&) = delete;
  ArrayTableBuilder& operator=(const ArrayTableBuilder&) = delete;

  void Add(const Slice& internal_key, const Slice& value);
  Status Finish(std::shared_ptr<ArrayTable>* table);

  uint64_t num_entries() const { return offsets_.size() / 4; }

 private:
  PmPool* pool_;
  std::string offsets_;  // the offsets area, encoded as it lands
  std::string data_;
};

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_ARRAY_TABLE_H_
