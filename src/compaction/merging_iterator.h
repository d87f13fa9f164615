// MergingIterator: a forward/backward mergesort cursor over N child
// iterators, used by every compaction (minor, internal, major) and by DB
// scans; plus UserKeyRangeIterator, which clips a merge input to a key
// range.

#ifndef PMBLADE_COMPACTION_MERGING_ITERATOR_H_
#define PMBLADE_COMPACTION_MERGING_ITERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "util/comparator.h"
#include "util/iterator.h"

namespace pmblade {

/// Takes ownership of the children. `comparator` must order the children's
/// keys (typically the InternalKeyComparator). Children with equal keys are
/// returned in child-index order, so callers must place newer sources first.
Iterator* NewMergingIterator(const Comparator* comparator,
                             std::vector<Iterator*> children);

/// Clips a sorted internal-key iterator to the user keys in [begin, end),
/// compared bytewise; an empty bound is open. Boundaries compare USER keys,
/// so every version of a user key lands on one side. SeekToFirst() positions
/// at the first version of `begin`; a caller may instead hand in `base`
/// already positioned. Forward-only.
class UserKeyRangeIterator final : public Iterator {
 public:
  /// Does not own `base`.
  UserKeyRangeIterator(Iterator* base, std::string begin_user_key,
                       std::string end_user_key);
  UserKeyRangeIterator(std::unique_ptr<Iterator> base,
                       std::string begin_user_key, std::string end_user_key);

  bool Valid() const override;
  void SeekToFirst() override;
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override { base_->Next(); }
  void Prev() override {}
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> owned_;
  Iterator* base_;
  std::string begin_;
  std::string end_;
};

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_MERGING_ITERATOR_H_
