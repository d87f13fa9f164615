// TableBuilder: streams sorted internal-key entries into an SSTable file.

#ifndef PMBLADE_SSTABLE_TABLE_BUILDER_H_
#define PMBLADE_SSTABLE_TABLE_BUILDER_H_

#include <cstdint>
#include <memory>

#include "env/env.h"
#include "sstable/format.h"
#include "util/comparator.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {

class BloomFilterPolicy;

struct TableBuilderOptions {
  const Comparator* comparator = nullptr;      // typically InternalKeyComparator
  const BloomFilterPolicy* filter_policy = nullptr;  // nullptr = no filter
  size_t block_size = 4096;
  int block_restart_interval = 16;
};

class TableBuilder {
 public:
  /// Does not take ownership of `file`; the caller syncs/closes it after
  /// Finish().
  TableBuilder(const TableBuilderOptions& options, WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Keys must arrive in strictly increasing comparator order.
  void Add(const Slice& key, const Slice& value);

  /// Writes index/filter/footer. The builder is unusable afterwards.
  Status Finish();

  /// Abandons the build (no footer written).
  void Abandon();

  uint64_t NumEntries() const;
  /// Bytes written so far (== final file size after Finish()).
  uint64_t FileSize() const;
  Status status() const;

 private:
  struct Rep;

  void Flush();
  void WriteBlock(class BlockBuilder* block, BlockHandle* handle);
  void WriteRawBlock(const Slice& data, BlockHandle* handle);

  std::unique_ptr<Rep> rep_;
};

}  // namespace pmblade

#endif  // PMBLADE_SSTABLE_TABLE_BUILDER_H_
