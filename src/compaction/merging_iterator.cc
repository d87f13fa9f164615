#include "compaction/merging_iterator.h"

#include "memtable/internal_key.h"

namespace pmblade {
namespace {

class MergingIterator final : public Iterator {
 public:
  MergingIterator(const Comparator* comparator,
                  std::vector<Iterator*> children)
      : comparator_(comparator) {
    children_.reserve(children.size());
    for (Iterator* child : children) {
      children_.emplace_back(child);
    }
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    direction_ = kForward;
    FindSmallest();
  }

  void SeekToLast() override {
    for (auto& child : children_) child->SeekToLast();
    direction_ = kReverse;
    FindLargest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    direction_ = kForward;
    FindSmallest();
  }

  void Next() override {
    // If we were going backward, realign all other children to be after the
    // current key.
    if (direction_ != kForward) {
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(key());
        if (child->Valid() &&
            comparator_->Compare(key(), child->key()) == 0) {
          child->Next();
        }
      }
      direction_ = kForward;
    }
    current_->Next();
    FindSmallest();
  }

  void Prev() override {
    if (direction_ != kReverse) {
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(key());
        if (child->Valid()) {
          child->Prev();  // now strictly before key()
        } else {
          child->SeekToLast();
        }
      }
      direction_ = kReverse;
    }
    current_->Prev();
    FindLargest();
  }

  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  void FindSmallest() {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (!child->Valid()) continue;
      if (smallest == nullptr ||
          comparator_->Compare(child->key(), smallest->key()) < 0) {
        smallest = child.get();
      }
    }
    current_ = smallest;
  }

  void FindLargest() {
    Iterator* largest = nullptr;
    // Reverse order so earlier children win ties going backward too.
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
      Iterator* child = it->get();
      if (!child->Valid()) continue;
      if (largest == nullptr ||
          comparator_->Compare(child->key(), largest->key()) > 0) {
        largest = child;
      }
    }
    current_ = largest;
  }

  const Comparator* comparator_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_ = nullptr;
  Direction direction_ = kForward;
};

}  // namespace

Iterator* NewMergingIterator(const Comparator* comparator,
                             std::vector<Iterator*> children) {
  if (children.empty()) return NewEmptyIterator();
  if (children.size() == 1) return children[0];
  return new MergingIterator(comparator, std::move(children));
}

UserKeyRangeIterator::UserKeyRangeIterator(Iterator* base,
                                           std::string begin_user_key,
                                           std::string end_user_key)
    : base_(base),
      begin_(std::move(begin_user_key)),
      end_(std::move(end_user_key)) {}

UserKeyRangeIterator::UserKeyRangeIterator(std::unique_ptr<Iterator> base,
                                           std::string begin_user_key,
                                           std::string end_user_key)
    : UserKeyRangeIterator(base.get(), std::move(begin_user_key),
                           std::move(end_user_key)) {
  owned_ = std::move(base);
}

bool UserKeyRangeIterator::Valid() const {
  if (!base_->Valid()) return false;
  if (end_.empty()) return true;
  return ExtractUserKey(base_->key()).compare(Slice(end_)) < 0;
}

void UserKeyRangeIterator::SeekToFirst() {
  if (begin_.empty()) {
    base_->SeekToFirst();
    return;
  }
  // Seek with the largest tag so no version of begin_ itself is skipped.
  std::string target;
  AppendInternalKey(&target, Slice(begin_), kMaxSequenceNumber,
                    kValueTypeForSeek);
  base_->Seek(Slice(target));
}

}  // namespace pmblade
