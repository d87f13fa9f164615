// DBUserIterator: converts the merged internal-key stream (memtable + all
// level-0 tables + level-1 runs) into the user-visible view at a snapshot:
// entries above the snapshot are invisible, only the newest visible version
// of each user key is surfaced, and tombstoned keys are skipped.

#include "compaction/merging_iterator.h"
#include "core/db_impl.h"
#include "core/version.h"

namespace pmblade {

namespace {

class DBUserIteratorImpl final : public Iterator {
 public:
  DBUserIteratorImpl(Iterator* internal, const InternalKeyComparator* icmp,
                     SequenceNumber snapshot)
      : internal_(internal), icmp_(icmp), snapshot_(snapshot) {}

  bool Valid() const override { return valid_; }
  Slice key() const override { return Slice(saved_key_); }
  Slice value() const override { return Slice(saved_value_); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return internal_->status();
  }

  void SeekToFirst() override {
    direction_ = kForward;
    internal_->SeekToFirst();
    FindNextUserEntry(/*skipping=*/false);
  }

  void SeekToLast() override {
    direction_ = kReverse;
    internal_->SeekToLast();
    FindPrevUserEntry();
  }

  void Seek(const Slice& target) override {
    direction_ = kForward;
    std::string seek_key;
    AppendInternalKey(&seek_key, target, snapshot_, kValueTypeForSeek);
    internal_->Seek(seek_key);
    FindNextUserEntry(/*skipping=*/false);
  }

  void Next() override {
    if (!valid_) return;
    if (direction_ == kReverse) {
      // Reposition forward past the current user key.
      direction_ = kForward;
      std::string seek_key;
      AppendInternalKey(&seek_key, saved_key_, 0, kTypeDeletion);
      internal_->Seek(seek_key);
      if (internal_->Valid() &&
          icmp_->user_comparator()->Compare(
              ExtractUserKey(internal_->key()), Slice(saved_key_)) == 0) {
        internal_->Next();
      }
      FindNextUserEntry(/*skipping=*/false);
      return;
    }
    // Forward: skip remaining versions of the current user key.
    FindNextUserEntry(/*skipping=*/true);
  }

  void Prev() override {
    if (!valid_) return;
    if (direction_ == kForward) {
      // Position internal_ before all entries of saved_key_.
      direction_ = kReverse;
      std::string seek_key;
      AppendInternalKey(&seek_key, saved_key_, kMaxSequenceNumber,
                        kValueTypeForSeek);
      internal_->Seek(seek_key);
      if (internal_->Valid()) {
        internal_->Prev();
      } else {
        internal_->SeekToLast();
      }
    } else {
      // Reverse: internal_ currently sits on the entry we consumed; walk
      // back past all versions of the current user key.
      while (internal_->Valid() &&
             icmp_->user_comparator()->Compare(
                 ExtractUserKey(internal_->key()), Slice(saved_key_)) == 0) {
        internal_->Prev();
      }
    }
    FindPrevUserEntry();
  }

 private:
  enum Direction { kForward, kReverse };

  /// Forward scan: position on the newest visible, non-deleted version of
  /// the next user key. If `skipping`, entries for saved_key_ are skipped.
  void FindNextUserEntry(bool skipping) {
    valid_ = false;
    while (internal_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(internal_->key(), &parsed)) {
        status_ = Status::Corruption("db iterator: malformed internal key");
        return;
      }
      if (parsed.sequence > snapshot_) {
        internal_->Next();
        continue;
      }
      if (skipping &&
          icmp_->user_comparator()->Compare(parsed.user_key,
                                            Slice(saved_key_)) <= 0) {
        internal_->Next();
        continue;
      }
      switch (parsed.type) {
        case kTypeDeletion:
          // This user key is deleted at the snapshot; skip all its versions.
          saved_key_.assign(parsed.user_key.data(), parsed.user_key.size());
          skipping = true;
          internal_->Next();
          break;
        case kTypeValue:
          saved_key_.assign(parsed.user_key.data(), parsed.user_key.size());
          saved_value_.assign(internal_->value().data(),
                              internal_->value().size());
          valid_ = true;
          return;
      }
    }
  }

  /// Backward scan: internal_ is positioned at some entry (or invalid);
  /// find the previous user key whose newest visible version is a value.
  void FindPrevUserEntry() {
    valid_ = false;
    // Walk backwards accumulating the newest visible version of each user
    // key; emit when we step past a user key whose newest version is a
    // value.
    ValueType value_type = kTypeDeletion;
    std::string current_key;
    std::string current_value;
    bool have_current = false;

    while (internal_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(internal_->key(), &parsed)) {
        status_ = Status::Corruption("db iterator: malformed internal key");
        return;
      }
      if (parsed.sequence <= snapshot_) {
        if (have_current &&
            icmp_->user_comparator()->Compare(parsed.user_key,
                                              Slice(current_key)) < 0) {
          // Finished scanning current_key's versions.
          if (value_type == kTypeValue) {
            saved_key_ = std::move(current_key);
            saved_value_ = std::move(current_value);
            valid_ = true;
            return;
          }
          have_current = false;
        }
        // Moving backward we see versions oldest..newest? No: backward over
        // (user asc, seq desc) visits newer versions LAST for a given key.
        // So each visible entry we see replaces the previous candidate.
        current_key.assign(parsed.user_key.data(), parsed.user_key.size());
        current_value.assign(internal_->value().data(),
                             internal_->value().size());
        value_type = parsed.type;
        have_current = true;
      }
      internal_->Prev();
    }
    if (have_current && value_type == kTypeValue) {
      saved_key_ = std::move(current_key);
      saved_value_ = std::move(current_value);
      valid_ = true;
      direction_ = kReverse;
      return;
    }
    valid_ = false;
  }

  std::unique_ptr<Iterator> internal_;
  const InternalKeyComparator* icmp_;
  SequenceNumber snapshot_;

  bool valid_ = false;
  Direction direction_ = kForward;
  std::string saved_key_;    // user key
  std::string saved_value_;
  Status status_;
};

}  // namespace

Iterator* NewUserIterator(Iterator* internal,
                          const InternalKeyComparator* icmp,
                          SequenceNumber snapshot) {
  return new DBUserIteratorImpl(internal, icmp, snapshot);
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  const SequenceNumber snapshot = ReadSequenceLocked(options.snapshot);
  Iterator* merged =
      NewMergingIterator(&icmp_, CollectInternalIterators());
  return new DBUserIteratorImpl(merged, &icmp_, snapshot);
}

}  // namespace pmblade
