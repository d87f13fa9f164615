#include "memtable/skiplist_memtable.h"

#include "util/coding.h"

namespace pmblade {

// Entry layout in the arena (one blob per Add):
//   varint32 internal_key_len | internal_key bytes | varint32 value_len |
//   value bytes
// Node layout: entry pointer + height + next[height] atomic pointers.

struct MemTable::Node {
  const char* entry;  // encoded entry blob
  int height;

  Node* Next(int level) const {
    return next_[level].load(std::memory_order_acquire);
  }
  void SetNext(int level, Node* node) {
    next_[level].store(node, std::memory_order_release);
  }
  Node* NoBarrierNext(int level) const {
    return next_[level].load(std::memory_order_relaxed);
  }
  void NoBarrierSetNext(int level, Node* node) {
    next_[level].store(node, std::memory_order_relaxed);
  }

  // next_ is over-allocated to `height` entries.
  std::atomic<Node*> next_[1];
};

MemTable::MemTable(const InternalKeyComparator& comparator)
    : comparator_(comparator), rnd_(0xdeadbeef) {
  head_ = NewNode(nullptr, kMaxHeight);
  for (int i = 0; i < kMaxHeight; ++i) head_->NoBarrierSetNext(i, nullptr);
}

MemTable::~MemTable() = default;

MemTable::Node* MemTable::NewNode(const char* entry, int height) {
  char* node_mem = arena_.AllocateAligned(
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
  Node* node = new (node_mem) Node();
  node->entry = entry;
  node->height = height;
  return node;
}

int MemTable::RandomHeight() {
  // Increase height with probability 1/4 per level.
  int height = 1;
  while (height < kMaxHeight && rnd_.OneIn(4)) ++height;
  return height;
}

Slice MemTable::EntryKey(const Node* node) {
  uint32_t klen = 0;
  const char* p =
      GetVarint32Ptr(node->entry, node->entry + 5, &klen);
  return Slice(p, klen);
}

Slice MemTable::EntryValue(const Node* node) {
  uint32_t klen = 0;
  const char* p = GetVarint32Ptr(node->entry, node->entry + 5, &klen);
  p += klen;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  return Slice(p, vlen);
}

int MemTable::CompareEntryToKey(const Node* node, const Slice& key) const {
  return comparator_.Compare(EntryKey(node), key);
}

MemTable::Node* MemTable::FindGreaterOrEqual(const Slice& key,
                                             Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next != nullptr && CompareEntryToKey(next, key) < 0) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

MemTable::Node* MemTable::FindLessThan(const Slice& key) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next != nullptr && CompareEntryToKey(next, key) < 0) {
      x = next;
    } else {
      if (level == 0) return x;
      --level;
    }
  }
}

MemTable::Node* MemTable::FindLast() const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next != nullptr) {
      x = next;
    } else {
      if (level == 0) return x;
      --level;
    }
  }
}

bool MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value, SequenceNumber first_seq) {
  // Encode the entry blob in place: the arena holds the only copy.
  const size_t internal_key_size = user_key.size() + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(value.size()) +
                             value.size();
  char* entry = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(entry, static_cast<uint32_t>(internal_key_size));
  memcpy(p, user_key.data(), user_key.size());
  p += user_key.size();
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p = EncodeVarint32(p + 8, static_cast<uint32_t>(value.size()));
  memcpy(p, value.data(), value.size());

  int height = RandomHeight();
  Node* x = NewNode(entry, height);
  Slice key = EntryKey(x);

  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; ++i) prev[i] = head_;
  Node* next = FindGreaterOrEqual(key, prev);

  // Older versions of the user key follow the new entry (newest first);
  // step past the ones at or above first_seq, which the caller's own
  // payload inserted.
  bool held_older = false;
  const Comparator* ucmp = comparator_.user_comparator();
  for (Node* n = next; n != nullptr; n = n->NoBarrierNext(0)) {
    const Slice k = EntryKey(n);
    if (ucmp->Compare(ExtractUserKey(k), user_key) != 0) break;
    if (UnpackSequence(ExtractTag(k)) < first_seq) {
      held_older = true;
      break;
    }
  }

  if (height > max_height_.load(std::memory_order_relaxed)) {
    // prev[] above the old height already points at head_.
    max_height_.store(height, std::memory_order_relaxed);
  }

  for (int i = 0; i < height; ++i) {
    x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
    prev[i]->SetNext(i, x);
  }
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  return held_older;
}

bool MemTable::Get(const LookupKey& lkey, std::string* value, Status* s) {
  Node* node = FindGreaterOrEqual(lkey.internal_key(), nullptr);
  if (node == nullptr) return false;
  // Check the entry is for the same user key.
  Slice entry_key = EntryKey(node);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(entry_key, &parsed)) return false;
  if (comparator_.user_comparator()->Compare(parsed.user_key,
                                             lkey.user_key()) != 0) {
    return false;
  }
  if (parsed.type == kTypeDeletion) {
    *s = Status::NotFound();
    return true;
  }
  Slice v = EntryValue(node);
  value->assign(v.data(), v.size());
  *s = Status::OK();
  return true;
}

class MemTable::Iter final : public Iterator {
 public:
  explicit Iter(MemTable* mem) : mem_(mem) { mem_->Ref(); }
  ~Iter() override { mem_->Unref(); }

  bool Valid() const override { return node_ != nullptr; }
  void SeekToFirst() override { node_ = mem_->head_->Next(0); }
  void SeekToLast() override {
    node_ = mem_->FindLast();
    if (node_ == mem_->head_) node_ = nullptr;
  }
  void Seek(const Slice& target) override {
    node_ = mem_->FindGreaterOrEqual(target, nullptr);
  }
  void Next() override { node_ = node_->Next(0); }
  void Prev() override {
    node_ = mem_->FindLessThan(EntryKey(node_));
    if (node_ == mem_->head_) node_ = nullptr;
  }
  Slice key() const override { return EntryKey(node_); }
  Slice value() const override { return EntryValue(node_); }
  Status status() const override { return Status::OK(); }

 private:
  MemTable* mem_;
  Node* node_ = nullptr;
};

Iterator* MemTable::NewIterator() { return new Iter(this); }

}  // namespace pmblade
