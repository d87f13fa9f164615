#include "pmtable/pm_table.h"

#include <cstring>

#include "compress/prefix.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

// Header layout (64 bytes):
//   0..3   magic "PMT1"
//   4..7   fixed32 num_entries
//   8..11  fixed32 num_groups
//   12..15 fixed32 num_metas
//   16..19 fixed32 group_size
//   20..23 fixed32 prefix_width
//   24..27 fixed32 meta_layer offset     (from image start)
//   28..31 fixed32 prefix_layer offset
//   32..35 fixed32 group_index offset
//   36..39 fixed32 entry_layer offset
//   40..43 fixed32 total image size
//   44..47 fixed32 header crc (bytes 0..43)
//   48..63 reserved
// Group index entry (16 bytes):
//   0..3   fixed32 entry offset (relative to entry layer)
//   4..7   fixed32 entry count
//   8..11  fixed32 meta id
//   12..15 fixed32 common prefix length (over remainders)

namespace pmtable_format {
constexpr char kMagic[4] = {'P', 'M', 'T', '1'};
constexpr uint32_t kHeaderSize = 64;
constexpr uint32_t kGroupIndexEntrySize = 16;
}  // namespace pmtable_format

using namespace pmtable_format;  // NOLINT

Status PmTable::Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<PmTable>* table) {
  char* data = pool->DataFor(id);
  if (data == nullptr) {
    return Status::NotFound("pm table: no such pool object");
  }
  std::shared_ptr<PmTable> t(new PmTable());
  t->pool_ = pool;
  t->id_ = id;
  t->base_ = data;
  PMBLADE_RETURN_IF_ERROR(t->Validate());
  *table = std::move(t);
  return Status::OK();
}

Status PmTable::Validate() {
  const char* h = base_;
  if (memcmp(h, kMagic, 4) != 0) {
    return Status::Corruption("pm table: bad magic");
  }
  if (crc32c::Value(h, 44) != DecodeFixed32(h + 44)) {
    return Status::Corruption("pm table: header crc mismatch");
  }
  num_entries_ = DecodeFixed32(h + 4);
  num_groups_ = DecodeFixed32(h + 8);
  num_metas_ = DecodeFixed32(h + 12);
  group_size_ = DecodeFixed32(h + 16);
  prefix_width_ = DecodeFixed32(h + 20);
  uint32_t meta_off = DecodeFixed32(h + 24);
  uint32_t prefix_off = DecodeFixed32(h + 28);
  uint32_t gindex_off = DecodeFixed32(h + 32);
  uint32_t entry_off = DecodeFixed32(h + 36);
  size_bytes_ = DecodeFixed32(h + 40);

  if (prefix_width_ == 0 || prefix_width_ > 64 || group_size_ == 0) {
    return Status::Corruption("pm table: bad geometry");
  }

  meta_layer_ = base_ + meta_off;
  prefix_layer_ = base_ + prefix_off;
  group_index_ = base_ + gindex_off;
  entry_layer_ = base_ + entry_off;
  limit_ = base_ + size_bytes_;

  // Decode the meta layer and the per-meta group ranges.
  metas_.clear();
  meta_group_begin_.clear();
  Slice meta_in(meta_layer_, prefix_layer_ - meta_layer_);
  for (uint32_t i = 0; i < num_metas_; ++i) {
    Slice m;
    if (!GetLengthPrefixedSlice(&meta_in, &m)) {
      return Status::Corruption("pm table: bad meta layer");
    }
    metas_.push_back(m);
  }
  // Group ranges: scan the group index once (DRAM-side cache).
  meta_group_begin_.assign(num_metas_ + 1, num_groups_);
  uint32_t prev_meta = UINT32_MAX;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
    uint32_t meta_id = DecodeFixed32(ge + 8);
    if (meta_id >= num_metas_) {
      return Status::Corruption("pm table: bad meta id in group index");
    }
    if (meta_id != prev_meta) {
      if (prev_meta != UINT32_MAX && meta_id < prev_meta) {
        return Status::Corruption("pm table: meta ids not ascending");
      }
      for (uint32_t m = (prev_meta == UINT32_MAX ? 0 : prev_meta + 1);
           m <= meta_id; ++m) {
        meta_group_begin_[m] = g;
      }
      prev_meta = meta_id;
    }
  }

  // Cache boundary keys.
  if (num_entries_ > 0) {
    std::unique_ptr<Iterator> it(NewIterator());
    it->SeekToFirst();
    if (!it->Valid()) return Status::Corruption("pm table: empty first");
    smallest_ = it->key().ToString();
    it->SeekToLast();
    if (!it->Valid()) return Status::Corruption("pm table: empty last");
    largest_ = it->key().ToString();
  }
  return Status::OK();
}

namespace {

// Internal-key order over the bytewise user keys PM tables hold: user key
// ascending, tag descending.
int CompareInternal(const Slice& a, const Slice& b) {
  int r = ExtractUserKey(a).compare(ExtractUserKey(b));
  if (r != 0) return r;
  uint64_t atag = ExtractTag(a), btag = ExtractTag(b);
  if (atag > btag) return -1;
  if (atag < btag) return +1;
  return 0;
}

}  // namespace

bool PmTable::DecodeGroupFirstKey(uint32_t g, std::string* out) const {
  const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
  uint32_t entry_off = DecodeFixed32(ge);
  uint32_t meta_id = DecodeFixed32(ge + 8);
  uint32_t common_len = DecodeFixed32(ge + 12);
  const char* slot = prefix_layer_ + uint64_t{g} * prefix_width_;
  Slice meta = metas_[meta_id];

  const char* p = entry_layer_ + entry_off;
  uint32_t suffix_len = 0, value_len = 0;
  p = GetVarint32Ptr(p, limit_, &suffix_len);
  if (p == nullptr) return false;
  p = GetVarint32Ptr(p, limit_, &value_len);
  if (p == nullptr || p + suffix_len > limit_) return false;
  out->clear();
  out->append(meta.data(), meta.size());
  out->append(slot, common_len);
  out->append(p, suffix_len);
  return out->size() >= 8;  // an internal key ends in its 8-byte tag
}

bool PmTable::FindGroup(const Slice& target, std::string* scratch,
                        uint32_t* group) const {
  // Full-key comparison keeps internal-key order exact regardless of slot
  // truncation ties. Upper bound: first group whose first key > target.
  uint32_t probes = 0;
  uint32_t lo = 0, hi = num_groups_;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    ++probes;
    if (!DecodeGroupFirstKey(mid, scratch)) return false;
    if (CompareInternal(Slice(*scratch), target) > 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  pool_->InjectRead(probes * (prefix_width_ + 16), probes);
  *group = (lo > 0) ? lo - 1 : 0;
  return true;
}

Status PmTable::Get(const InternalKeyComparator& /*icmp*/,
                    const LookupKey& lkey, std::string* value,
                    GetResult* result) const {
  *result = GetResult::kAbsent;
  if (num_groups_ == 0) return Status::OK();
  // One reconstruction buffer per thread: after the first few lookups it
  // has the capacity of the longest key, and nothing here allocates.
  thread_local std::string key;
  const Slice target = lkey.internal_key();
  uint32_t g = 0;
  if (!FindGroup(target, &key, &g)) {
    return Status::Corruption("pm table: bad entry encoding");
  }
  // The first key >= target is in group g, or is group g+1's first key when
  // every entry of g sorts before it (one key's versions straddling the
  // boundary); the loop runs at most twice.
  for (; g < num_groups_; ++g) {
    const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
    uint32_t entry_off = DecodeFixed32(ge);
    uint32_t count = DecodeFixed32(ge + 4);
    uint32_t meta_id = DecodeFixed32(ge + 8);
    uint32_t common_len = DecodeFixed32(ge + 12);
    const char* slot = prefix_layer_ + uint64_t{g} * prefix_width_;
    Slice meta = metas_[meta_id];
    key.assign(meta.data(), meta.size());
    key.append(slot, common_len);
    const size_t shared = key.size();

    // Bytes of the headers and suffixes walked so far; values of entries
    // walked past are skipped, not read.
    size_t walked = 0;
    const char* p = entry_layer_ + entry_off;
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = p;
      uint32_t suffix_len = 0, value_len = 0;
      p = GetVarint32Ptr(p, limit_, &suffix_len);
      if (p == nullptr) {
        return Status::Corruption("pm table: bad entry encoding");
      }
      p = GetVarint32Ptr(p, limit_, &value_len);
      if (p == nullptr || p + suffix_len + value_len > limit_) {
        return Status::Corruption("pm table: bad entry encoding");
      }
      key.resize(shared);
      key.append(p, suffix_len);
      p += suffix_len;
      walked += static_cast<size_t>(p - entry);
      if (key.size() < 8) {
        pool_->InjectRead(walked, 1);
        return Status::Corruption("pm table: bad entry encoding");
      }
      if (CompareInternal(Slice(key), target) < 0) {
        p += value_len;
        continue;
      }
      ParsedInternalKey parsed;
      if (!ParseInternalKey(Slice(key), &parsed)) {
        pool_->InjectRead(walked, 1);
        return Status::Corruption("pm table: malformed internal key");
      }
      if (parsed.user_key != lkey.user_key()) {
        pool_->InjectRead(walked, 1);
        return Status::OK();
      }
      pool_->InjectRead(walked + value_len, 1);
      if (parsed.type == kTypeDeletion) {
        *result = GetResult::kDeletion;
      } else {
        *result = GetResult::kValue;
        value->assign(p, value_len);
      }
      return Status::OK();
    }
    pool_->InjectRead(walked, 1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

class PmTableIter final : public Iterator {
 public:
  explicit PmTableIter(std::shared_ptr<const PmTable> table)
      : t_(std::move(table)) {}

  bool Valid() const override { return group_ < t_->num_groups_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  void SeekToFirst() override {
    if (t_->num_groups_ == 0) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(0)) PositionAt(0);
  }

  void SeekToLast() override {
    if (t_->num_groups_ == 0) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(t_->num_groups_ - 1)) {
      PositionAt(static_cast<int>(entry_count_) - 1);
    }
  }

  void Seek(const Slice& target) override {
    if (t_->num_groups_ == 0) {
      group_ = t_->num_groups_;
      return;
    }
    uint32_t candidate = 0;
    if (!t_->FindGroup(target, &key_buf_, &candidate)) {
      Corrupt();
      return;
    }
    if (!LoadGroup(candidate)) return;
    for (size_t i = 0; i < entry_count_; ++i) {
      if (CompareInternal(EntryKey(i), target) >= 0) {
        PositionAt(static_cast<int>(i));
        return;
      }
    }
    // Every entry of the candidate group < target: the answer is the first
    // entry of the next group (its first key > target by the search above).
    if (candidate + 1 < t_->num_groups_) {
      if (LoadGroup(candidate + 1)) PositionAt(0);
    } else {
      group_ = t_->num_groups_;
    }
  }

  void Next() override {
    if (index_ + 1 < static_cast<int>(entry_count_)) {
      PositionAt(index_ + 1);
      return;
    }
    if (group_ + 1 >= t_->num_groups_) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(group_ + 1)) PositionAt(0);
  }

  void Prev() override {
    if (index_ > 0) {
      PositionAt(index_ - 1);
      return;
    }
    if (group_ == 0) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(group_ - 1)) {
      PositionAt(static_cast<int>(entry_count_) - 1);
    }
  }

 private:
  /// Reconstructed entries of the loaded group live as offset/length pairs
  /// into key_buf_ (one flat buffer reused across group loads), so decoding
  /// a group allocates nothing once the buffer has warmed up.
  struct EntryRef {
    uint32_t key_offset = 0;
    uint32_t key_len = 0;
    Slice value;
  };

  Slice EntryKey(size_t i) const {
    return Slice(key_buf_.data() + entries_[i].key_offset,
                 entries_[i].key_len);
  }

  /// Decodes all entries of group `g` into the flat key buffer + entry
  /// refs. Allocation-free once the buffers are warm. Injects the PM read
  /// cost of the group scan. False (and the iterator invalid with a
  /// Corruption status) on a malformed entry.
  bool LoadGroup(uint32_t g) {
    group_ = g;
    const char* ge = t_->group_index_ + uint64_t{g} * kGroupIndexEntrySize;
    uint32_t entry_off = DecodeFixed32(ge);
    uint32_t count = DecodeFixed32(ge + 4);
    uint32_t meta_id = DecodeFixed32(ge + 8);
    uint32_t common_len = DecodeFixed32(ge + 12);
    const char* slot = t_->prefix_layer_ + uint64_t{g} * t_->prefix_width_;
    Slice meta = t_->metas_[meta_id];

    if (entries_.size() < count) entries_.resize(count);
    entry_count_ = count;
    key_buf_.clear();  // keeps capacity

    const char* p = t_->entry_layer_ + entry_off;
    const char* start = p;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t suffix_len = 0, value_len = 0;
      p = GetVarint32Ptr(p, t_->limit_, &suffix_len);
      if (p == nullptr) return Corrupt();
      p = GetVarint32Ptr(p, t_->limit_, &value_len);
      if (p == nullptr || p + suffix_len + value_len > t_->limit_) {
        return Corrupt();
      }
      EntryRef& e = entries_[i];
      e.key_offset = static_cast<uint32_t>(key_buf_.size());
      key_buf_.append(meta.data(), meta.size());
      key_buf_.append(slot, common_len);
      key_buf_.append(p, suffix_len);
      e.key_len = static_cast<uint32_t>(key_buf_.size()) - e.key_offset;
      p += suffix_len;
      e.value = Slice(p, value_len);
      p += value_len;
    }
    // One sequential PM access covering the group's bytes.
    t_->pool_->InjectRead(static_cast<size_t>(p - start), 1);
    return true;
  }

  void PositionAt(int i) {
    index_ = i;
    key_ = EntryKey(i);
    value_ = entries_[i].value;
  }

  bool Corrupt() {
    status_ = Status::Corruption("pm table: bad entry encoding");
    group_ = t_->num_groups_;
    entry_count_ = 0;
    return false;
  }

  std::shared_ptr<const PmTable> t_;
  uint32_t group_ = UINT32_MAX;
  int index_ = -1;
  uint32_t entry_count_ = 0;
  std::vector<EntryRef> entries_;
  std::string key_buf_;
  Slice key_;
  Slice value_;
  Status status_;
};

Iterator* PmTable::NewIterator() const {
  if (num_groups_ == 0) return NewEmptyIterator();
  return new PmTableIter(shared_from_this());
}

}  // namespace pmblade
