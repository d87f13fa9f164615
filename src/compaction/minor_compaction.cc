#include "compaction/minor_compaction.h"

#include "env/filename.h"
#include "pmtable/array_table.h"
#include "pmtable/pm_table_builder.h"
#include "pmtable/snappy_table.h"
#include "sstable/ssd_l0_table.h"
#include "sstable/table_builder.h"

namespace pmblade {

L0TableFactory::L0TableFactory(const L0FactoryOptions& options, PmPool* pool,
                               Env* ssd_env)
    : options_(options), pool_(pool), ssd_env_(ssd_env) {}

namespace {

/// Reopens pool object `id` as a `Table` and rebuilds its DRAM filter.
template <typename Table>
Status OpenAs(PmPool* pool, uint64_t id, const BloomFilterPolicy* filter,
              L0TableRef* table) {
  std::shared_ptr<Table> t;
  PMBLADE_RETURN_IF_ERROR(Table::Open(pool, id, &t));
  if (filter != nullptr) t->BuildFilter(filter);
  *table = std::move(t);
  return Status::OK();
}

}  // namespace

Status L0TableFactory::BuildFrom(Iterator* input, L0TableRef* table) {
  table->reset();
  if (!input->Valid()) return input->status();

  switch (options_.layout) {
    case L0Layout::kPmTable: {
      PmTableBuilder builder(pool_, options_.pm_table);
      FilterCollector filter(options_.filter_policy);
      for (; input->Valid(); input->Next()) {
        builder.Add(input->key(), input->value());
        filter.Observe(input->key());
      }
      PMBLADE_RETURN_IF_ERROR(input->status());
      if (builder.num_entries() == 0) return Status::OK();
      std::shared_ptr<PmTable> t;
      PMBLADE_RETURN_IF_ERROR(builder.Finish(&t));
      filter.InstallOn(t.get());
      *table = std::move(t);
      return Status::OK();
    }

    case L0Layout::kArrayTable: {
      ArrayTableBuilder builder(pool_);
      FilterCollector filter(options_.filter_policy);
      for (; input->Valid(); input->Next()) {
        builder.Add(input->key(), input->value());
        filter.Observe(input->key());
      }
      PMBLADE_RETURN_IF_ERROR(input->status());
      if (builder.num_entries() == 0) return Status::OK();
      std::shared_ptr<ArrayTable> t;
      PMBLADE_RETURN_IF_ERROR(builder.Finish(&t));
      filter.InstallOn(t.get());
      *table = std::move(t);
      return Status::OK();
    }

    case L0Layout::kSnappyTable:
    case L0Layout::kSnappyGroupTable: {
      uint32_t group = options_.layout == L0Layout::kSnappyTable
                           ? 1
                           : options_.snappy_group_size;
      SnappyTableBuilder builder(pool_, group);
      FilterCollector filter(options_.filter_policy);
      uint64_t added = 0;
      for (; input->Valid(); input->Next()) {
        builder.Add(input->key(), input->value());
        filter.Observe(input->key());
        ++added;
      }
      PMBLADE_RETURN_IF_ERROR(input->status());
      if (added == 0) return Status::OK();
      std::shared_ptr<SnappyTable> t;
      PMBLADE_RETURN_IF_ERROR(builder.Finish(&t));
      filter.InstallOn(t.get());
      *table = std::move(t);
      return Status::OK();
    }

    case L0Layout::kSstable: {
      uint64_t file_number = NextFileNumber();
      std::string path = SstFileName(options_.ssd_dir, file_number);

      std::unique_ptr<WritableFile> file;
      PMBLADE_RETURN_IF_ERROR(ssd_env_->NewWritableFile(path, &file));
      TableBuilderOptions topts;
      topts.comparator = options_.icmp;
      topts.filter_policy = options_.filter_policy;
      topts.block_size = options_.block_size;
      TableBuilder builder(topts, file.get());
      for (; input->Valid(); input->Next()) {
        builder.Add(input->key(), input->value());
      }
      PMBLADE_RETURN_IF_ERROR(input->status());
      if (builder.NumEntries() == 0) {
        builder.Abandon();
        file->Close();
        ssd_env_->RemoveFile(path);
        return Status::OK();
      }
      PMBLADE_RETURN_IF_ERROR(builder.Finish());
      PMBLADE_RETURN_IF_ERROR(file->Sync());
      PMBLADE_RETURN_IF_ERROR(file->Close());
      return OpenSstable(file_number, table);
    }
  }
  return Status::NotSupported("unknown L0 layout");
}

Status L0TableFactory::OpenPmTable(uint64_t id, uint32_t kind,
                                   L0TableRef* table) {
  const BloomFilterPolicy* filter = options_.filter_policy;
  switch (kind) {
    case kPmTableObject:
      return OpenAs<PmTable>(pool_, id, filter, table);
    case kArrayTableObject:
      return OpenAs<ArrayTable>(pool_, id, filter, table);
    case kSnappyTableObject:
    case kSnappyGroupTableObject:
      return OpenAs<SnappyTable>(pool_, id, filter, table);
  }
  return Status::Corruption("no level-0 table in pm object " +
                            std::to_string(id));
}

Status L0TableFactory::OpenSstable(uint64_t file_number, L0TableRef* table) {
  TableReaderOptions ropts;
  ropts.comparator = options_.icmp;
  ropts.filter_policy = options_.filter_policy;
  ropts.block_cache = options_.block_cache;
  ropts.file_number = file_number;
  std::shared_ptr<SsdL0Table> t;
  PMBLADE_RETURN_IF_ERROR(SsdL0Table::Open(
      ssd_env_, SstFileName(options_.ssd_dir, file_number), file_number, ropts,
      &t));
  *table = std::move(t);
  return Status::OK();
}

}  // namespace pmblade
