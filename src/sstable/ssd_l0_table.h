// SsdL0Table: a level-0 table stored as an SSTable on the (simulated) SSD,
// behind the L0Table interface. This is what the paper's PMBlade-SSD
// configuration uses for level-0, and also how level-1 tables are held by
// the engine's version set.

#ifndef PMBLADE_SSTABLE_SSD_L0_TABLE_H_
#define PMBLADE_SSTABLE_SSD_L0_TABLE_H_

#include <memory>
#include <string>

#include "env/env.h"
#include "pmtable/l0_table.h"
#include "sstable/table_reader.h"

namespace pmblade {

class SsdL0Table : public L0Table,
                   public std::enable_shared_from_this<SsdL0Table> {
 public:
  /// Opens the SSTable at `path`. `id` orders L0 tables by recency;
  /// `env` is used for Destroy (file deletion) and must outlive the table.
  static Status Open(Env* env, const std::string& path, uint64_t id,
                     const TableReaderOptions& reader_options,
                     std::shared_ptr<SsdL0Table>* table);

  Iterator* NewIterator() const override;
  uint64_t num_entries() const override { return num_entries_; }
  uint64_t size_bytes() const override { return size_bytes_; }
  Slice smallest() const override { return smallest_; }
  Slice largest() const override { return largest_; }
  uint64_t id() const override { return id_; }
  /// SSTables carry their own per-block filter instead of a whole-table
  /// one; Get probes it on the same index seek that finds the data block
  /// (TableReader::InternalGet), so a rejection costs no data-block read.
  bool HasFilter() const override;
  Status Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
             std::string* value, GetResult* result) const override;
  /// Also drops the table's blocks from the block cache, here on the
  /// thread that installs the replacement: the destructor, which removes
  /// the file, may run on whichever reader drops the last ref, a
  /// foreground Get included. (A reader still holding a ref can cache a
  /// block again; LRU ages it out.)
  Status Destroy() override;
  ~SsdL0Table() override;

  const std::string& path() const { return path_; }
  TableReader* reader() const { return reader_.get(); }

 private:
  SsdL0Table() = default;

  Env* env_ = nullptr;
  BlockCache* block_cache_ = nullptr;
  uint64_t cache_id_ = 0;  // the file's key namespace in block_cache_
  std::string path_;
  uint64_t id_ = 0;
  bool doomed_ = false;  // remove the file on destruction
  uint64_t size_bytes_ = 0;
  uint64_t num_entries_ = 0;
  std::unique_ptr<TableReader> reader_;
  std::string smallest_;
  std::string largest_;
};

}  // namespace pmblade

#endif  // PMBLADE_SSTABLE_SSD_L0_TABLE_H_
