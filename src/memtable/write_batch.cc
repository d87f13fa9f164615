#include "memtable/write_batch.h"

#include "memtable/skiplist_memtable.h"
#include "util/coding.h"

namespace pmblade {

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader, '\0');
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  EncodeFixed32(rep_.data() + 8, Count() + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(const Slice& key) {
  EncodeFixed32(rep_.data() + 8, Count() + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

void WriteBatch::Append(const WriteBatch& other) {
  if (other.Count() == 0) return;
  EncodeFixed32(rep_.data() + 8, Count() + other.Count());
  rep_.append(other.rep_.data() + kHeader, other.rep_.size() - kHeader);
}

uint32_t WriteBatch::Count() const { return DecodeFixed32(rep_.data() + 8); }

SequenceNumber WriteBatch::Sequence() const {
  return DecodeFixed64(rep_.data());
}

void WriteBatch::SetSequence(SequenceNumber seq) {
  EncodeFixed64(rep_.data(), seq);
}

void WriteBatch::SetContentsFrom(const Slice& contents) {
  rep_.assign(contents.data(), contents.size());
  if (rep_.size() < kHeader) Clear();
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  input.remove_prefix(kHeader);
  uint32_t found = 0;
  while (!input.empty()) {
    ++found;
    char tag = input[0];
    input.remove_prefix(1);
    Slice key, value;
    switch (tag) {
      case kTypeValue:
        if (!GetLengthPrefixedSlice(&input, &key) ||
            !GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("bad WriteBatch Put");
        }
        handler->Put(key, value);
        break;
      case kTypeDeletion:
        if (!GetLengthPrefixedSlice(&input, &key)) {
          return Status::Corruption("bad WriteBatch Delete");
        }
        handler->Delete(key);
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
  }
  if (found != Count()) {
    return Status::Corruption("WriteBatch has wrong count");
  }
  return Status::OK();
}

namespace {
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(SequenceNumber seq, MemTable* mem,
                   WriteBatch::InsertObserver* observer)
      : first_(seq), sequence_(seq), mem_(mem), observer_(observer) {}

  void Put(const Slice& key, const Slice& value) override {
    Insert(kTypeValue, key, value);
  }
  void Delete(const Slice& key) override {
    Insert(kTypeDeletion, key, Slice());
  }

 private:
  void Insert(ValueType type, const Slice& key, const Slice& value) {
    const bool held_older = mem_->Add(sequence_++, type, key, value, first_);
    if (observer_ != nullptr) observer_->Inserted(key, type, held_older);
  }

  const SequenceNumber first_;
  SequenceNumber sequence_;
  MemTable* mem_;
  WriteBatch::InsertObserver* observer_;
};
}  // namespace

Status WriteBatch::InsertInto(MemTable* mem, InsertObserver* observer) const {
  MemTableInserter inserter(Sequence(), mem, observer);
  return Iterate(&inserter);
}

}  // namespace pmblade
