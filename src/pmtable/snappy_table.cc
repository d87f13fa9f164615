#include "pmtable/snappy_table.h"

#include <cstring>

#include "compress/lz.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

// Image layout:
//   0..3   magic "SNT1"
//   4..7   fixed32 num_entries
//   8..11  fixed32 num_groups
//   12..15 fixed32 group_size
//   16..19 fixed32 offsets area start
//   20..23 fixed32 data area start
//   24..27 fixed32 total size
//   28..31 fixed32 header crc (bytes 0..27)
//   [offsets]      num_groups+1 fixed32 (compressed group bounds, relative
//                  to data area)
//   [group counts] num_groups fixed32 entry counts
//   [data]         per group: LZ-compressed concatenation of
//                  (varint klen | varint vlen | key | value) records

namespace {
constexpr char kMagic[4] = {'S', 'N', 'T', '1'};
constexpr uint32_t kHeaderSize = 32;
}  // namespace

Status SnappyTable::Open(PmPool* pool, uint64_t id,
                         std::shared_ptr<SnappyTable>* table) {
  char* data = pool->DataFor(id);
  if (data == nullptr) {
    return Status::NotFound("snappy table: no such pool object");
  }
  std::shared_ptr<SnappyTable> t(new SnappyTable());
  t->pool_ = pool;
  t->id_ = id;
  t->base_ = data;
  PMBLADE_RETURN_IF_ERROR(t->Validate());
  *table = std::move(t);
  return Status::OK();
}

Status SnappyTable::Validate() {
  if (memcmp(base_, kMagic, 4) != 0) {
    return Status::Corruption("snappy table: bad magic");
  }
  if (crc32c::Value(base_, 28) != DecodeFixed32(base_ + 28)) {
    return Status::Corruption("snappy table: header crc mismatch");
  }
  num_entries_ = DecodeFixed32(base_ + 4);
  num_groups_ = DecodeFixed32(base_ + 8);
  group_size_ = DecodeFixed32(base_ + 12);
  offsets_ = base_ + DecodeFixed32(base_ + 16);
  data_ = base_ + DecodeFixed32(base_ + 20);
  size_bytes_ = DecodeFixed32(base_ + 24);
  limit_ = base_ + size_bytes_;

  if (num_entries_ > 0) {
    std::unique_ptr<Iterator> it(NewIterator());
    it->SeekToFirst();
    if (!it->Valid()) return Status::Corruption("snappy table: bad first");
    smallest_ = it->key().ToString();
    it->SeekToLast();
    if (!it->Valid()) return Status::Corruption("snappy table: bad last");
    largest_ = it->key().ToString();
  }
  return Status::OK();
}

Status SnappyTable::LoadGroup(uint32_t g, std::string* out,
                              uint32_t* count) const {
  if (g >= num_groups_) return Status::InvalidArgument("group out of range");
  uint32_t begin = DecodeFixed32(offsets_ + uint64_t{g} * 4);
  uint32_t end = DecodeFixed32(offsets_ + uint64_t{g + 1} * 4);
  const char* counts = offsets_ + uint64_t{num_groups_ + 1} * 4;
  *count = DecodeFixed32(counts + uint64_t{g} * 4);
  if (end < begin || data_ + end > limit_) {
    return Status::Corruption("snappy table: bad group bounds");
  }
  // PM read of the compressed bytes (one sequential access).
  pool_->InjectRead(end - begin, 1);
  out->clear();
  return lz::Decompress(Slice(data_ + begin, end - begin), out);
}

class SnappyTableIter final : public Iterator {
 public:
  explicit SnappyTableIter(std::shared_ptr<const SnappyTable> table)
      : t_(std::move(table)) {}

  bool Valid() const override { return group_ < t_->num_groups_; }
  Status status() const override { return status_; }
  Slice key() const override { return Slice(entries_[index_].key); }
  Slice value() const override { return Slice(entries_[index_].value); }

  void SeekToFirst() override {
    if (t_->num_groups_ == 0) { group_ = 0; Invalidate(); return; }
    if (!LoadGroup(0)) return;
    index_ = 0;
  }
  void SeekToLast() override {
    if (t_->num_groups_ == 0) { Invalidate(); return; }
    if (!LoadGroup(t_->num_groups_ - 1)) return;
    index_ = static_cast<int>(entries_.size()) - 1;
  }
  void Next() override {
    if (index_ + 1 < static_cast<int>(entries_.size())) { ++index_; return; }
    if (group_ + 1 >= t_->num_groups_) { Invalidate(); return; }
    if (!LoadGroup(group_ + 1)) return;
    index_ = 0;
  }
  void Prev() override {
    if (index_ > 0) { --index_; return; }
    if (group_ == 0) { Invalidate(); return; }
    if (!LoadGroup(group_ - 1)) return;
    index_ = static_cast<int>(entries_.size()) - 1;
  }

  void Seek(const Slice& target) override {
    // Binary search over groups; each probe decompresses a group to read its
    // first key (the cost the paper charges these layouts with).
    uint32_t lo = 0, hi = t_->num_groups_;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (!LoadGroup(mid)) return;
      if (entries_.empty() ||
          CompareInternal(Slice(entries_[0].key), target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Candidate group is lo-1 (its first key < target) unless lo == 0.
    uint32_t g = (lo == 0) ? 0 : lo - 1;
    while (g < t_->num_groups_) {
      if (!LoadGroup(g)) return;
      for (size_t i = 0; i < entries_.size(); ++i) {
        if (CompareInternal(Slice(entries_[i].key), target) >= 0) {
          index_ = static_cast<int>(i);
          return;
        }
      }
      ++g;
    }
    Invalidate();
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };

  static int CompareInternal(const Slice& a, const Slice& b) {
    int r = ExtractUserKey(a).compare(ExtractUserKey(b));
    if (r != 0) return r;
    uint64_t atag = ExtractTag(a), btag = ExtractTag(b);
    if (atag > btag) return -1;
    if (atag < btag) return +1;
    return 0;
  }

  void Invalidate() { group_ = t_->num_groups_; }

  bool LoadGroup(uint32_t g) {
    std::string raw;
    uint32_t count = 0;
    Status s = t_->LoadGroup(g, &raw, &count);
    if (!s.ok()) {
      status_ = s;
      Invalidate();
      return false;
    }
    entries_.clear();
    Slice in(raw);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t klen = 0, vlen = 0;
      if (!GetVarint32(&in, &klen) || !GetVarint32(&in, &vlen) ||
          in.size() < klen + vlen) {
        status_ = Status::Corruption("snappy table: bad group records");
        Invalidate();
        return false;
      }
      Entry e;
      e.key.assign(in.data(), klen);
      in.remove_prefix(klen);
      e.value.assign(in.data(), vlen);
      in.remove_prefix(vlen);
      entries_.push_back(std::move(e));
    }
    group_ = g;
    return true;
  }

  std::shared_ptr<const SnappyTable> t_;
  uint32_t group_ = UINT32_MAX;
  int index_ = -1;
  std::vector<Entry> entries_;
  Status status_;
};

Iterator* SnappyTable::NewIterator() const {
  if (num_groups_ == 0) return NewEmptyIterator();
  return new SnappyTableIter(shared_from_this());
}

SnappyTableBuilder::SnappyTableBuilder(PmPool* pool, uint32_t group_size)
    : pool_(pool), group_size_(group_size == 0 ? 1 : group_size) {
  PutFixed32(&group_offsets_, 0);
}

void SnappyTableBuilder::Add(const Slice& internal_key, const Slice& value) {
  PutVarint32(&pending_, static_cast<uint32_t>(internal_key.size()));
  PutVarint32(&pending_, static_cast<uint32_t>(value.size()));
  pending_.append(internal_key.data(), internal_key.size());
  pending_.append(value.data(), value.size());
  ++pending_count_;
  ++num_entries_;
  if (pending_count_ >= group_size_) SealGroup();
}

void SnappyTableBuilder::SealGroup() {
  if (pending_count_ == 0) return;
  lz::Compress(Slice(pending_), &data_);
  PutFixed32(&group_offsets_, static_cast<uint32_t>(data_.size()));
  PutFixed32(&group_counts_, pending_count_);
  pending_.clear();
  pending_count_ = 0;
}

Status SnappyTableBuilder::Finish(std::shared_ptr<SnappyTable>* table) {
  SealGroup();
  const uint32_t num_groups = static_cast<uint32_t>(group_counts_.size() / 4);
  const uint32_t offsets_start = kHeaderSize;
  const uint32_t data_start =
      offsets_start + (num_groups + 1) * 4 + num_groups * 4;
  const uint32_t total = data_start + static_cast<uint32_t>(data_.size());

  char h[kHeaderSize] = {};
  memcpy(h, kMagic, 4);
  EncodeFixed32(h + 4, num_entries_);
  EncodeFixed32(h + 8, num_groups);
  EncodeFixed32(h + 12, group_size_);
  EncodeFixed32(h + 16, offsets_start);
  EncodeFixed32(h + 20, data_start);
  EncodeFixed32(h + 24, total);
  EncodeFixed32(h + 28, crc32c::Value(h, 28));

  uint64_t id = 0;
  uint32_t kind =
      group_size_ > 1 ? kSnappyGroupTableObject : kSnappyTableObject;
  PMBLADE_RETURN_IF_ERROR(LandTableObject(
      pool_, kind,
      {Slice(h, kHeaderSize), group_offsets_, group_counts_, data_}, &id));
  return SnappyTable::Open(pool_, id, table);
}

}  // namespace pmblade
