// Slice: a non-owning view over a byte range, with the small API the storage
// layer needs (compare, prefix tests). Analogous to (and API-compatible with
// a subset of) rocksdb::Slice.

#ifndef PMBLADE_UTIL_SLICE_H_
#define PMBLADE_UTIL_SLICE_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace pmblade {

/// A pointer + length pair referencing externally owned bytes. The referenced
/// memory must outlive the Slice.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}               // NOLINT
  Slice(std::string_view sv) : data_(sv.data()), size_(sv.size()) {} // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  /// Drops the first `n` bytes from this slice.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }

  /// Three-way lexicographic byte comparison: <0, 0, >0.
  int compare(const Slice& b) const;

  bool starts_with(const Slice& x) const {
    return size_ >= x.size_ && memcmp(data_, x.data_, x.size_) == 0;
  }

  /// Length of the longest common prefix with `b`.
  size_t difference_offset(const Slice& b) const {
    size_t n = std::min(size_, b.size_);
    size_t off = 0;
    while (off < n && data_[off] == b.data_[off]) ++off;
    return off;
  }

 private:
  const char* data_;
  size_t size_;
};

inline int Slice::compare(const Slice& b) const {
  const size_t min_len = (size_ < b.size_) ? size_ : b.size_;
  int r = memcmp(data_, b.data_, min_len);
  if (r == 0) {
    if (size_ < b.size_) r = -1;
    else if (size_ > b.size_) r = +1;
  }
  return r;
}

inline bool operator==(const Slice& x, const Slice& y) {
  return x.size() == y.size() && memcmp(x.data(), y.data(), x.size()) == 0;
}
inline bool operator!=(const Slice& x, const Slice& y) { return !(x == y); }
inline bool operator<(const Slice& x, const Slice& y) {
  return x.compare(y) < 0;
}

}  // namespace pmblade

#endif  // PMBLADE_UTIL_SLICE_H_
