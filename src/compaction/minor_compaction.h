// Minor compaction: flushing an immutable memtable (or a key sub-range of
// it) into one level-0 table. The L0TableFactory abstracts the physical
// layout so every configuration in the paper is expressible (PM table,
// array table, LZ-compressed tables, or an SSTable on the SSD for
// PMBlade-SSD).

#ifndef PMBLADE_COMPACTION_MINOR_COMPACTION_H_
#define PMBLADE_COMPACTION_MINOR_COMPACTION_H_

#include <atomic>
#include <memory>
#include <string>

#include "env/env.h"
#include "pm/pm_pool.h"
#include "pmtable/l0_table.h"
#include "pmtable/pm_table.h"
#include "sstable/block_cache.h"
#include "util/bloom.h"

namespace pmblade {

/// Physical layout of level-0 tables.
enum class L0Layout {
  kPmTable,           // the paper's compressed PM table
  kArrayTable,        // uncompressed array table on PM
  kSnappyTable,       // per-pair LZ on PM        (Fig. 6 baseline)
  kSnappyGroupTable,  // per-8-pair LZ on PM      (Fig. 6 baseline)
  kSstable,           // SSTable on SSD           (PMBlade-SSD)
};

struct L0FactoryOptions {
  L0Layout layout = L0Layout::kPmTable;
  PmTableOptions pm_table;      // used when layout == kPmTable
  uint32_t snappy_group_size = 8;

  // `filter_policy` covers every layout: SSTables get a per-block filter
  // section, PM layouts get a DRAM-resident whole-table filter built from
  // the keys streamed through BuildFrom. nullptr = no filters.
  // The remaining SSTable settings apply to layout == kSstable and level-1
  // outputs.
  const InternalKeyComparator* icmp = nullptr;
  const BloomFilterPolicy* filter_policy = nullptr;
  BlockCache* block_cache = nullptr;
  size_t block_size = 4096;
  std::string ssd_dir;  // directory for SSTable files
};

class L0TableFactory {
 public:
  /// `pool` may be nullptr for kSstable; `ssd_env` may be nullptr for PM
  /// layouts. Neither is owned.
  L0TableFactory(const L0FactoryOptions& options, PmPool* pool, Env* ssd_env);

  /// Builds a table from `input` (positioned entries in ascending internal
  /// order; consumed until !Valid()). Returns the opened table. An empty
  /// input yields *table == nullptr and OK.
  Status BuildFrom(Iterator* input, L0TableRef* table);
  /// Reopens the table in pool object `id`, whose PmPool kind (`kind`)
  /// names its layout, and rebuilds the DRAM bloom BuildFrom would have
  /// installed: the filter is not part of the PM media format.
  Status OpenPmTable(uint64_t id, uint32_t kind, L0TableRef* table);
  /// Opens SSTable `file_number` in options().ssd_dir.
  Status OpenSstable(uint64_t file_number, L0TableRef* table);

  const L0FactoryOptions& options() const { return options_; }
  PmPool* pool() const { return pool_; }
  Env* ssd_env() const { return ssd_env_; }

  /// File number allocator for SSTable outputs (shared with major
  /// compaction so names never collide).
  uint64_t NextFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Manifest plumbing: restore/read the allocator without consuming.
  void set_next_file_number(uint64_t n) { next_file_number_.store(n); }
  uint64_t peek_next_file_number() const { return next_file_number_.load(); }

 private:
  L0FactoryOptions options_;
  PmPool* pool_;
  Env* ssd_env_;
  std::atomic<uint64_t> next_file_number_{1};
};

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_MINOR_COMPACTION_H_
