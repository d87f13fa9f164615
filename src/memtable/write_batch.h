// WriteBatch: an atomic group of Put/Delete operations, serialized in the
// exact form written to the WAL so replay is byte-identical.

#ifndef PMBLADE_MEMTABLE_WRITE_BATCH_H_
#define PMBLADE_MEMTABLE_WRITE_BATCH_H_

#include <string>

#include "memtable/internal_key.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {

class MemTable;

class WriteBatch {
 public:
  WriteBatch() { Clear(); }

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  /// Appends all of `other`'s operations to this batch (group commit:
  /// the leader coalesces follower batches into one WAL record). The
  /// sequence header of `other` is ignored.
  void Append(const WriteBatch& other);

  /// Number of operations in the batch.
  uint32_t Count() const;

  /// Total serialized size in bytes.
  size_t ApproximateSize() const { return rep_.size(); }

  /// Callback-style traversal of the batch contents.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

  // ---- internal (WAL / memtable plumbing) ----

  /// Serialized representation: fixed64 base-sequence | fixed32 count |
  /// records (kTypeValue key value | kTypeDeletion key).
  const std::string& rep() const { return rep_; }
  void SetContentsFrom(const Slice& contents);

  SequenceNumber Sequence() const;
  void SetSequence(SequenceNumber seq);

  /// Told of each entry InsertInto adds. `held_older` is true when the
  /// memtable already held a version of `key` from before this batch.
  class InsertObserver {
   public:
    virtual ~InsertObserver() = default;
    virtual void Inserted(const Slice& key, ValueType type,
                          bool held_older) = 0;
  };

  /// Applies the batch into `mem` with sequence numbers starting at
  /// Sequence(), reporting each entry to `observer` when one is given.
  Status InsertInto(MemTable* mem, InsertObserver* observer = nullptr) const;

 private:
  static constexpr size_t kHeader = 12;
  std::string rep_;
};

}  // namespace pmblade

#endif  // PMBLADE_MEMTABLE_WRITE_BATCH_H_
