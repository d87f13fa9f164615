// MemTable: an arena-backed skiplist keyed by internal keys. Writers append
// under the DB write lock (single writer at a time); readers traverse
// concurrently without locks (release/acquire on node pointers).

#ifndef PMBLADE_MEMTABLE_SKIPLIST_MEMTABLE_H_
#define PMBLADE_MEMTABLE_SKIPLIST_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "memtable/internal_key.h"
#include "util/arena.h"
#include "util/iterator.h"
#include "util/random.h"

namespace pmblade {

class MemTable {
 public:
  explicit MemTable(const InternalKeyComparator& comparator);
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Reference counting: the DB holds one ref; flush jobs take another while
  /// reading an immutable memtable.
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  /// Adds an entry, encoded straight into the arena. `type` distinguishes
  /// values from tombstones. Returns true if the memtable already held a
  /// version of `user_key` older than `first_seq`: the write path passes
  /// its payload's first sequence, so the insert's own search answers
  /// Eq. 2's update probe and versions from the same payload do not count.
  bool Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value, SequenceNumber first_seq = 0);

  /// Point lookup at snapshot embedded in `key`. Returns true if this
  /// memtable has an answer: value (s OK) or tombstone (s NotFound).
  bool Get(const LookupKey& key, std::string* value, Status* s);

  /// Iterator over internal-key entries, newest version of each user key
  /// first. key() is the encoded internal key.
  Iterator* NewIterator();

  /// Approximate DRAM consumed (drives flush triggering).
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

 private:
  struct Node;
  class Iter;

  static constexpr int kMaxHeight = 12;

  int RandomHeight();
  /// A node of `height` levels over an entry already in the arena.
  Node* NewNode(const char* entry, int height);
  /// First node with entry key >= `key` (internal-key order).
  Node* FindGreaterOrEqual(const Slice& key, Node** prev) const;
  Node* FindLessThan(const Slice& key) const;
  Node* FindLast() const;
  int CompareEntryToKey(const Node* node, const Slice& key) const;
  static Slice EntryKey(const Node* node);
  static Slice EntryValue(const Node* node);

  InternalKeyComparator comparator_;
  Arena arena_;
  Random rnd_;
  Node* head_;
  std::atomic<int> max_height_{1};
  std::atomic<int> refs_{0};
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace pmblade

#endif  // PMBLADE_MEMTABLE_SKIPLIST_MEMTABLE_H_
