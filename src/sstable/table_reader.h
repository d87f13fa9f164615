// TableReader: opens an SSTable file and serves point lookups (through the
// bloom filter and block cache) and iteration (two-level iterator over the
// index block and data blocks).

#ifndef PMBLADE_SSTABLE_TABLE_READER_H_
#define PMBLADE_SSTABLE_TABLE_READER_H_

#include <cstdint>
#include <memory>

#include "env/env.h"
#include "sstable/block_cache.h"
#include "util/comparator.h"
#include "util/iterator.h"
#include "util/status.h"

namespace pmblade {

class BloomFilterPolicy;

struct TableReaderOptions {
  const Comparator* comparator = nullptr;
  const BloomFilterPolicy* filter_policy = nullptr;
  BlockCache* block_cache = nullptr;   // optional
  /// Cache key namespace for this file in the block cache.
  uint64_t file_number = 0;
};

class TableReader {
 public:
  /// Takes ownership of `file`. `file_size` must be exact.
  static Status Open(const TableReaderOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, std::unique_ptr<TableReader>* table);

  ~TableReader();
  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  /// Iterator over (internal key, value) entries.
  Iterator* NewIterator() const;

  /// Point lookup: one seek of the DRAM-resident index finds the candidate
  /// block; its filter is asked about the user key, and only if it may
  /// match is the block read and `handle_result` called on the first entry
  /// with key >= `key` in it. `filter_rejected` (optional) reports whether
  /// the filter ruled the key out.
  Status InternalGet(const Slice& key, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v),
                     bool* filter_rejected = nullptr) const;

  bool has_filter() const;

 private:
  struct Rep;
  explicit TableReader(Rep* rep);

  static Iterator* BlockReader(void* arg, const Slice& index_value);
  Iterator* NewBlockIterator(const Slice& index_value) const;

  std::unique_ptr<Rep> rep_;
};

}  // namespace pmblade

#endif  // PMBLADE_SSTABLE_TABLE_READER_H_
