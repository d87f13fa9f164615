#include "pmtable/array_table.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

// Image layout:
//   0..3   magic "ART1"
//   4..7   fixed32 num_entries
//   8..11  fixed32 offsets area start
//   12..15 fixed32 data area start
//   16..19 fixed32 total size
//   20..23 fixed32 header crc (bytes 0..19)
//   24..31 reserved
//   [offsets] num_entries fixed32 (entry start relative to data area)
//   [data]    per entry: varint klen | varint vlen | key | value

namespace {
constexpr char kMagic[4] = {'A', 'R', 'T', '1'};
constexpr uint32_t kHeaderSize = 32;
}  // namespace

Status ArrayTable::Open(PmPool* pool, uint64_t id,
                        std::shared_ptr<ArrayTable>* table) {
  char* data = pool->DataFor(id);
  if (data == nullptr) {
    return Status::NotFound("array table: no such pool object");
  }
  std::shared_ptr<ArrayTable> t(new ArrayTable());
  t->pool_ = pool;
  t->id_ = id;
  t->base_ = data;
  PMBLADE_RETURN_IF_ERROR(t->Validate());
  *table = std::move(t);
  return Status::OK();
}

Status ArrayTable::Validate() {
  if (memcmp(base_, kMagic, 4) != 0) {
    return Status::Corruption("array table: bad magic");
  }
  if (crc32c::Value(base_, 20) != DecodeFixed32(base_ + 20)) {
    return Status::Corruption("array table: header crc mismatch");
  }
  num_entries_ = DecodeFixed32(base_ + 4);
  offsets_ = base_ + DecodeFixed32(base_ + 8);
  data_ = base_ + DecodeFixed32(base_ + 12);
  size_bytes_ = DecodeFixed32(base_ + 16);
  limit_ = base_ + size_bytes_;

  if (num_entries_ > 0) {
    Slice k, v;
    if (!DecodeEntry(0, &k, &v)) {
      return Status::Corruption("array table: bad first entry");
    }
    smallest_ = k.ToString();
    if (!DecodeEntry(num_entries_ - 1, &k, &v)) {
      return Status::Corruption("array table: bad last entry");
    }
    largest_ = k.ToString();
  }
  return Status::OK();
}

bool ArrayTable::DecodeEntry(uint32_t i, Slice* key, Slice* value) const {
  if (i >= num_entries_) return false;
  uint32_t off = DecodeFixed32(offsets_ + uint64_t{i} * 4);
  const char* p = data_ + off;
  uint32_t klen = 0, vlen = 0;
  p = GetVarint32Ptr(p, limit_, &klen);
  if (p == nullptr) return false;
  p = GetVarint32Ptr(p, limit_, &vlen);
  if (p == nullptr || p + klen + vlen > limit_) return false;
  *key = Slice(p, klen);
  *value = Slice(p + klen, vlen);
  return true;
}

class ArrayTableIter final : public Iterator {
 public:
  explicit ArrayTableIter(std::shared_ptr<const ArrayTable> table)
      : t_(std::move(table)) {}

  bool Valid() const override { return pos_ < t_->num_entries_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  void SeekToFirst() override { Position(0); }
  void SeekToLast() override {
    Position(t_->num_entries_ > 0 ? t_->num_entries_ - 1 : t_->num_entries_);
  }
  void Next() override { Position(pos_ + 1); }
  void Prev() override {
    Position(pos_ == 0 ? t_->num_entries_ : pos_ - 1);
  }

  void Seek(const Slice& target) override {
    // Binary search; each probe costs two PM accesses (offset + entry).
    uint32_t lo = 0, hi = t_->num_entries_;
    uint32_t probes = 0;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      Slice k, v;
      if (!t_->DecodeEntry(mid, &k, &v)) {
        status_ = Status::Corruption("array table: bad entry");
        pos_ = t_->num_entries_;
        return;
      }
      ++probes;
      if (CompareBytewiseInternalKeys(k, target) < 0) lo = mid + 1;
      else hi = mid;
    }
    t_->pool_->InjectRead(probes * 32, probes * 2);
    Position(lo);
  }

 private:
  void Position(uint32_t pos) {
    pos_ = pos;
    if (pos_ >= t_->num_entries_) return;
    Slice k, v;
    if (!t_->DecodeEntry(pos_, &k, &v)) {
      status_ = Status::Corruption("array table: bad entry");
      pos_ = t_->num_entries_;
      return;
    }
    key_ = k;
    value_ = v;
    t_->pool_->InjectRead(k.size() + v.size(), 1);
  }

  std::shared_ptr<const ArrayTable> t_;
  uint32_t pos_ = UINT32_MAX;
  Slice key_;
  Slice value_;
  Status status_;
};

Iterator* ArrayTable::NewIterator() const {
  if (num_entries_ == 0) return NewEmptyIterator();
  return new ArrayTableIter(shared_from_this());
}

ArrayTableBuilder::ArrayTableBuilder(PmPool* pool) : pool_(pool) {}

void ArrayTableBuilder::Add(const Slice& internal_key, const Slice& value) {
  PutFixed32(&offsets_, static_cast<uint32_t>(data_.size()));
  PutVarint32(&data_, static_cast<uint32_t>(internal_key.size()));
  PutVarint32(&data_, static_cast<uint32_t>(value.size()));
  data_.append(internal_key.data(), internal_key.size());
  data_.append(value.data(), value.size());
}

Status ArrayTableBuilder::Finish(std::shared_ptr<ArrayTable>* table) {
  const uint32_t offsets_start = kHeaderSize;
  const uint32_t data_start =
      offsets_start + static_cast<uint32_t>(offsets_.size());
  const uint32_t total = data_start + static_cast<uint32_t>(data_.size());

  char h[kHeaderSize] = {};
  memcpy(h, kMagic, 4);
  EncodeFixed32(h + 4, static_cast<uint32_t>(num_entries()));
  EncodeFixed32(h + 8, offsets_start);
  EncodeFixed32(h + 12, data_start);
  EncodeFixed32(h + 16, total);
  EncodeFixed32(h + 20, crc32c::Value(h, 20));

  uint64_t id = 0;
  PMBLADE_RETURN_IF_ERROR(LandTableObject(
      pool_, kArrayTableObject, {Slice(h, kHeaderSize), offsets_, data_},
      &id));
  return ArrayTable::Open(pool_, id, table);
}

}  // namespace pmblade
