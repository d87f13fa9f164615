#include "sstable/ssd_l0_table.h"

namespace pmblade {

namespace {
// Iterator wrapper keeping the table handle alive.
class HoldingIterator final : public Iterator {
 public:
  HoldingIterator(std::shared_ptr<const SsdL0Table> table, Iterator* iter)
      : table_(std::move(table)), iter_(iter) {}
  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void SeekToLast() override { iter_->SeekToLast(); }
  void Seek(const Slice& t) override { iter_->Seek(t); }
  void Next() override { iter_->Next(); }
  void Prev() override { iter_->Prev(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<const SsdL0Table> table_;
  std::unique_ptr<Iterator> iter_;
};
}  // namespace

Status SsdL0Table::Open(Env* env, const std::string& path, uint64_t id,
                        const TableReaderOptions& reader_options,
                        std::shared_ptr<SsdL0Table>* table) {
  uint64_t size = 0;
  PMBLADE_RETURN_IF_ERROR(env->GetFileSize(path, &size));
  std::unique_ptr<RandomAccessFile> file;
  PMBLADE_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));

  std::shared_ptr<SsdL0Table> t(new SsdL0Table());
  t->env_ = env;
  t->block_cache_ = reader_options.block_cache;
  t->cache_id_ = reader_options.file_number;
  t->path_ = path;
  t->id_ = id;
  t->size_bytes_ = size;
  PMBLADE_RETURN_IF_ERROR(
      TableReader::Open(reader_options, std::move(file), size, &t->reader_));

  // Boundary keys + entry count by a bounded scan of first/last positions.
  std::unique_ptr<Iterator> it(t->reader_->NewIterator());
  it->SeekToFirst();
  if (it->Valid()) {
    t->smallest_ = it->key().ToString();
    it->SeekToLast();
    t->largest_ = it->key().ToString();
    // Entry count is not in the footer; approximate by a full scan only for
    // small tables, otherwise estimate from size (used for stats only).
    if (size < 1 << 20) {
      uint64_t n = 0;
      for (it->SeekToFirst(); it->Valid(); it->Next()) ++n;
      t->num_entries_ = n;
    } else {
      t->num_entries_ = size / 128;  // rough average entry estimate
    }
  }
  *table = std::move(t);
  return Status::OK();
}

Iterator* SsdL0Table::NewIterator() const {
  return new HoldingIterator(shared_from_this(), reader_->NewIterator());
}

bool SsdL0Table::HasFilter() const { return reader_->has_filter(); }

namespace {
struct GetState {
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
  L0Table::GetResult result;
  bool malformed;
};

void SaveResult(void* arg, const Slice& ikey, const Slice& v) {
  auto* state = static_cast<GetState*>(arg);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    state->malformed = true;
    return;
  }
  if (state->ucmp->Compare(parsed.user_key, state->user_key) != 0) return;
  if (parsed.type == kTypeDeletion) {
    state->result = L0Table::GetResult::kDeletion;
  } else {
    state->result = L0Table::GetResult::kValue;
    state->value->assign(v.data(), v.size());
  }
}
}  // namespace

Status SsdL0Table::Get(const InternalKeyComparator& icmp,
                       const LookupKey& lkey, std::string* value,
                       GetResult* result) const {
  GetState state{icmp.user_comparator(), lkey.user_key(), value,
                 GetResult::kAbsent, false};
  bool filter_rejected = false;
  Status s = reader_->InternalGet(lkey.internal_key(), &state, &SaveResult,
                                  &filter_rejected);
  *result = filter_rejected ? GetResult::kFiltered : state.result;
  if (s.ok() && state.malformed) {
    return Status::Corruption("l0 table: malformed internal key");
  }
  return s;
}

Status SsdL0Table::Destroy() {
  doomed_ = true;
  if (block_cache_ != nullptr) block_cache_->EvictTable(cache_id_);
  return Status::OK();
}

SsdL0Table::~SsdL0Table() {
  if (doomed_) env_->RemoveFile(path_);
}

}  // namespace pmblade
