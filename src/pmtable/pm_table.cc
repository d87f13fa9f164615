#include "pmtable/pm_table.h"

#include <algorithm>
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

namespace {

// The user key of an internal key that starts with a meta of `meta_len`
// bytes, without that meta.
Slice UserRemainder(const Slice& internal_key, size_t meta_len) {
  const Slice user_key = ExtractUserKey(internal_key);
  return Slice(user_key.data() + meta_len, user_key.size() - meta_len);
}

}  // namespace

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

  // Decode the meta layer.
  metas_.clear();
  Slice meta_in(meta_layer_, prefix_layer_ - meta_layer_);
  for (uint32_t i = 0; i < num_metas_; ++i) {
    Slice m;
    if (!GetLengthPrefixedSlice(&meta_in, &m)) {
      return Status::Corruption("pm table: bad meta layer");
    }
    metas_.push_back(m);
  }
  // The DRAM search structures. The meta ranges come from the group index
  // alone. The remainder bytes every first key of a range shares are, for
  // sorted keys, those its first and last share; each group's slot is cut
  // after them, so keys with a long common prefix (index keys such as
  // "user0000000042|...") still get distinct slots. Each group's first key
  // is decoded once, plus each range's first and last.
  ranges_.clear();
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
    const uint32_t meta_id = DecodeFixed32(ge + 8);
    if (meta_id >= num_metas_) {
      return Status::Corruption("pm table: bad meta id in group index");
    }
    if (ranges_.empty() || ranges_.back().meta_id != meta_id) {
      if (!ranges_.empty() && meta_id < ranges_.back().meta_id) {
        return Status::Corruption("pm table: meta ids not ascending");
      }
      ranges_.push_back(MetaRange{g, meta_id, std::string(), 0});
    }
  }
  slots_.assign(uint64_t{num_groups_} * prefix_width_, '\0');
  std::string key;
  for (size_t r = 0; r < ranges_.size(); ++r) {
    MetaRange& range = ranges_[r];
    const uint32_t end =
        r + 1 < ranges_.size() ? ranges_[r + 1].first_group : num_groups_;
    const size_t meta_len = metas_[range.meta_id].size();
    if (!DecodeGroupFirstKey(range.first_group, &range.first_key) ||
        !DecodeGroupFirstKey(end - 1, &key)) {
      return Status::Corruption("pm table: bad entry encoding");
    }
    range.shared_len = prefix::CommonPrefixLength(
        UserRemainder(range.first_key, meta_len), UserRemainder(key, meta_len));
    const Slice shared(range.first_key.data(), meta_len + range.shared_len);
    for (uint32_t g = range.first_group; g < end; ++g) {
      if (!DecodeGroupFirstKey(g, &key)) {
        return Status::Corruption("pm table: bad entry encoding");
      }
      Slice user_key = ExtractUserKey(key);
      if (!user_key.starts_with(shared)) {
        return Status::Corruption("pm table: group keys out of order");
      }
      user_key.remove_prefix(shared.size());
      prefix::FixedWidthSlot(user_key, prefix_width_,
                             slots_.data() + uint64_t{g} * prefix_width_);
    }
  }
  pool_->InjectRead(uint64_t{num_groups_} * (prefix_width_ + 16),
                    num_groups_);

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
  // An internal key is meta ++ user remainder ++ its 8-byte tag.
  return out->size() >= meta.size() + 8;
}

bool PmTable::FindGroup(const Slice& target, std::string* scratch,
                        uint32_t* group) const {
  *group = 0;
  // The bracketing meta range: the last whose first key <= target.
  const auto after = std::upper_bound(
      ranges_.begin(), ranges_.end(), target,
      [](const Slice& t, const MetaRange& range) {
        return CompareInternal(t, Slice(range.first_key)) < 0;
      });
  if (after == ranges_.begin()) return true;  // target precedes every group
  const MetaRange& range = *(after - 1);

  // Upper bound over the range's groups: groups before lo have a first key
  // <= target (the range's first does), groups from hi on one > target.
  uint32_t lo = range.first_group + 1;
  uint32_t hi = after == ranges_.end() ? num_groups_ : after->first_group;
  // Every first key of the range starts with its meta and shared bytes. A
  // target user key that starts with them too compares with those keys as
  // its slot compares with theirs, up to ties, whatever the target's own
  // meta; only a tie needs the full first key from PM. A target that does
  // not sorts after every first key of the range, since the range's first
  // key <= target.
  Slice user_target = ExtractUserKey(target);
  const Slice shared(range.first_key.data(),
                     metas_[range.meta_id].size() + range.shared_len);
  char target_slot[64];
  if (user_target.starts_with(shared)) {
    user_target.remove_prefix(shared.size());
    prefix::FixedWidthSlot(user_target, prefix_width_, target_slot);
  } else {
    lo = hi;
  }
  uint32_t decoded = 0;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    int cmp = memcmp(slots_.data() + uint64_t{mid} * prefix_width_,
                     target_slot, prefix_width_);
    if (cmp == 0) {
      ++decoded;
      if (!DecodeGroupFirstKey(mid, scratch)) return false;
      cmp = CompareInternal(Slice(*scratch), target);
    }
    if (cmp > 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (decoded > 0) {
    pool_->InjectRead(decoded * (prefix_width_ + 16), decoded);
  }
  *group = lo - 1;
  return true;
}

bool PmTable::CollectKeys(FilterCollector* collector) const {
  std::string key;
  for (uint32_t g = 0; g < num_groups_; ++g) {
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

    size_t walked = 0;
    const char* p = entry_layer_ + entry_off;
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = p;
      uint32_t suffix_len = 0, value_len = 0;
      p = GetVarint32Ptr(p, limit_, &suffix_len);
      if (p != nullptr) p = GetVarint32Ptr(p, limit_, &value_len);
      if (p == nullptr || p + suffix_len + value_len > limit_) return false;
      key.resize(shared);
      key.append(p, suffix_len);
      if (key.size() < 8) return false;
      p += suffix_len;
      walked += static_cast<size_t>(p - entry);
      p += value_len;
      collector->Observe(Slice(key));
    }
    pool_->InjectRead(walked, 1);
  }
  return true;
}

size_t PmTable::dram_bytes() const {
  size_t total = filter_bytes() + slots_.size();
  for (const MetaRange& range : ranges_) total += range.first_key.size();
  return total;
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
