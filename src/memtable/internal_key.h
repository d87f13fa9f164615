// Internal key encoding: user_key ⊕ fixed64(sequence << 8 | type), ordered by
// user key ascending then sequence descending so the newest version of a key
// sorts first. Shared by the memtable, PM tables and SSTables.

#ifndef PMBLADE_MEMTABLE_INTERNAL_KEY_H_
#define PMBLADE_MEMTABLE_INTERNAL_KEY_H_

#include <cstdint>
#include <string>

#include "util/comparator.h"
#include "util/slice.h"

namespace pmblade {

using SequenceNumber = uint64_t;

/// Highest sequence number usable (56 bits; the low byte packs the type).
constexpr SequenceNumber kMaxSequenceNumber = (uint64_t{1} << 56) - 1;

enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};

/// Sentinel used when seeking: kTypeValue sorts after kTypeDeletion within
/// the packed tag, and we want the *first* entry >= (key, seq), so lookups
/// seek with the largest tag for the target sequence.
constexpr ValueType kValueTypeForSeek = kTypeValue;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

inline SequenceNumber UnpackSequence(uint64_t packed) { return packed >> 8; }
inline ValueType UnpackType(uint64_t packed) {
  return static_cast<ValueType>(packed & 0xff);
}

/// A parsed internal key.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;
};

/// Appends the encoded internal key for (user_key, seq, type) to *result.
void AppendInternalKey(std::string* result, const Slice& user_key,
                       SequenceNumber seq, ValueType type);

/// Splits an encoded internal key; returns false if malformed (< 8 bytes).
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

/// The user-key portion of an encoded internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// The packed (seq, type) tag of an encoded internal key.
uint64_t ExtractTag(const Slice& internal_key);

/// Internal-key order over bytewise user keys (user key ascending, tag
/// descending), without InternalKeyComparator's virtual calls: the PM
/// layouts' searches use it, as their tables hold bytewise keys only.
inline int CompareBytewiseInternalKeys(const Slice& a, const Slice& b) {
  int r = ExtractUserKey(a).compare(ExtractUserKey(b));
  if (r != 0) return r;
  uint64_t atag = ExtractTag(a), btag = ExtractTag(b);
  if (atag > btag) return -1;
  if (atag < btag) return +1;
  return 0;
}

/// Orders internal keys: user key ascending (per user comparator), then tag
/// descending (newer versions first).
class InternalKeyComparator : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* user_comparator)
      : user_comparator_(user_comparator) {}

  int Compare(const Slice& a, const Slice& b) const override;
  const char* Name() const override {
    return "pmblade.InternalKeyComparator";
  }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* user_comparator_;
};

/// Owning internal-key helper for boundary bookkeeping (smallest/largest of
/// a table, compaction ranges).
class InternalKey {
 public:
  InternalKey() = default;
  InternalKey(const Slice& user_key, SequenceNumber seq, ValueType type) {
    AppendInternalKey(&rep_, user_key, seq, type);
  }

  void DecodeFrom(const Slice& s) { rep_.assign(s.data(), s.size()); }
  Slice Encode() const { return rep_; }
  Slice user_key() const { return ExtractUserKey(rep_); }
  bool empty() const { return rep_.empty(); }
  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

/// A LookupKey bundles the forms of a key a read needs: the internal seek key
/// (user_key + tag for snapshot `seq`) and the bare user key.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber seq);

  Slice internal_key() const { return Slice(rep_); }
  Slice user_key() const { return Slice(rep_.data(), rep_.size() - 8); }

 private:
  std::string rep_;
};

}  // namespace pmblade

#endif  // PMBLADE_MEMTABLE_INTERNAL_KEY_H_
