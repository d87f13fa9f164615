#include "pmtable/pm_table_builder.h"

#include <cassert>
#include <cstring>

#include "compress/prefix.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

namespace {
constexpr char kMagic[4] = {'P', 'M', 'T', '1'};
constexpr uint32_t kHeaderSize = 64;
}  // namespace

PmTableBuilder::PmTableBuilder(PmPool* pool, const PmTableOptions& options)
    : pool_(pool), options_(options) {
  if (options_.prefix_width == 0) options_.prefix_width = 8;
  if (options_.prefix_width > 64) options_.prefix_width = 64;
  if (options_.group_size == 0) options_.group_size = 16;
}

void PmTableBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(internal_key.size() >= 8);
#ifndef NDEBUG
  // The previous entry is still buffered: a group seals only below.
  if (!group_entries_.empty()) {
    const Slice last = PendingKey(group_entries_.back());
    const int r = ExtractUserKey(internal_key).compare(ExtractUserKey(last));
    assert(r > 0 || (r == 0 && ExtractTag(internal_key) < ExtractTag(last)));
  }
#endif

  Slice user_key = ExtractUserKey(internal_key);
  Slice meta = prefix::TableIdComponent(user_key);

  // Metas arrive in ascending order because keys do.
  if (metas_.empty() || Slice(metas_.back()) != meta) {
    metas_.push_back(meta.ToString());
  }
  uint32_t meta_id = static_cast<uint32_t>(metas_.size() - 1);

  // Groups never straddle meta boundaries and hold <= group_size entries.
  if (!group_entries_.empty() &&
      (meta_id != group_meta_id_ ||
       group_entries_.size() >= options_.group_size)) {
    SealGroup();
  }
  group_meta_id_ = meta_id;
  group_entries_.push_back(
      PendingEntry{static_cast<uint32_t>(group_buf_.size()),
                   static_cast<uint32_t>(internal_key.size()),
                   static_cast<uint32_t>(value.size())});
  group_buf_.append(internal_key.data(), internal_key.size());
  group_buf_.append(value.data(), value.size());
  ++num_entries_;
  raw_bytes_ += internal_key.size() + value.size();
}

void PmTableBuilder::SealGroup() {
  if (group_entries_.empty()) return;

  const size_t meta_len = metas_[group_meta_id_].size();

  // Remainders (keys with the meta component stripped).
  remainders_.clear();
  for (const PendingEntry& e : group_entries_) {
    const Slice key = PendingKey(e);
    remainders_.emplace_back(key.data() + meta_len, key.size() - meta_len);
  }

  // Common prefix over the group's remainders, clamped to the slot width so
  // the prefix bytes are always recoverable from the slot.
  size_t common = prefix::CommonPrefixLengthAll(remainders_);
  if (common > options_.prefix_width) common = options_.prefix_width;

  // Prefix slot: first remainder's leading bytes, zero padded.
  size_t slot_pos = prefix_layer_.size();
  prefix_layer_.resize(slot_pos + options_.prefix_width);
  prefix::FixedWidthSlot(remainders_[0], options_.prefix_width,
                         prefix_layer_.data() + slot_pos);

  // Group index entry.
  PutFixed32(&group_index_, static_cast<uint32_t>(entry_layer_.size()));
  PutFixed32(&group_index_, static_cast<uint32_t>(group_entries_.size()));
  PutFixed32(&group_index_, group_meta_id_);
  PutFixed32(&group_index_, static_cast<uint32_t>(common));

  // Entries: suffix after the common prefix.
  for (size_t i = 0; i < group_entries_.size(); ++i) {
    const PendingEntry& e = group_entries_[i];
    Slice suffix(remainders_[i].data() + common,
                 remainders_[i].size() - common);
    PutVarint32(&entry_layer_, static_cast<uint32_t>(suffix.size()));
    PutVarint32(&entry_layer_, e.value_len);
    entry_layer_.append(suffix.data(), suffix.size());
    entry_layer_.append(group_buf_.data() + e.offset + e.key_len,
                        e.value_len);
  }

  ++num_groups_;
  group_entries_.clear();
  group_buf_.clear();
}

Status PmTableBuilder::Finish(std::shared_ptr<PmTable>* table) {
  SealGroup();

  // Meta layer bytes.
  std::string meta_layer;
  for (const auto& m : metas_) {
    PutLengthPrefixedSlice(&meta_layer, m);
  }

  const uint32_t meta_off = kHeaderSize;
  const uint32_t prefix_off =
      meta_off + static_cast<uint32_t>(meta_layer.size());
  const uint32_t gindex_off =
      prefix_off + static_cast<uint32_t>(prefix_layer_.size());
  const uint32_t entry_off =
      gindex_off + static_cast<uint32_t>(group_index_.size());
  const uint32_t total =
      entry_off + static_cast<uint32_t>(entry_layer_.size());

  char h[kHeaderSize] = {};
  memcpy(h, kMagic, 4);
  EncodeFixed32(h + 4, static_cast<uint32_t>(num_entries_));
  EncodeFixed32(h + 8, num_groups_);
  EncodeFixed32(h + 12, static_cast<uint32_t>(metas_.size()));
  EncodeFixed32(h + 16, options_.group_size);
  EncodeFixed32(h + 20, options_.prefix_width);
  EncodeFixed32(h + 24, meta_off);
  EncodeFixed32(h + 28, prefix_off);
  EncodeFixed32(h + 32, gindex_off);
  EncodeFixed32(h + 36, entry_off);
  EncodeFixed32(h + 40, total);
  EncodeFixed32(h + 44, crc32c::Value(h, 44));

  uint64_t id = 0;
  PMBLADE_RETURN_IF_ERROR(LandTableObject(
      pool_, kPmTableObject,
      {Slice(h, kHeaderSize), meta_layer, prefix_layer_, group_index_,
       entry_layer_},
      &id));
  return PmTable::Open(pool_, id, table);
}

}  // namespace pmblade
