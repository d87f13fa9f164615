#include "sstable/table_reader.h"

#include <string>

#include "memtable/internal_key.h"
#include "sstable/block.h"
#include "sstable/filter_block.h"
#include "sstable/format.h"
#include "util/bloom.h"
#include "util/coding.h"

namespace pmblade {

struct TableReader::Rep {
  TableReaderOptions options;
  std::unique_ptr<RandomAccessFile> file;
  Status status;

  std::unique_ptr<Block> index_block;
  std::unique_ptr<FilterBlockReader> filter;
  std::string filter_data;  // backing bytes for `filter`
};

Status TableReader::Open(const TableReaderOptions& options,
                         std::unique_ptr<RandomAccessFile> file,
                         uint64_t file_size,
                         std::unique_ptr<TableReader>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  PMBLADE_RETURN_IF_ERROR(
      file->Read(file_size - Footer::kEncodedLength, Footer::kEncodedLength,
                 &footer_input, footer_space));
  if (footer_input.size() != Footer::kEncodedLength) {
    return Status::Corruption("truncated footer read");
  }

  Footer footer;
  PMBLADE_RETURN_IF_ERROR(footer.DecodeFrom(&footer_input));

  // Index block.
  BlockContents index_contents;
  PMBLADE_RETURN_IF_ERROR(
      ReadBlock(file.get(), footer.index_handle(), &index_contents));

  auto* rep = new Rep();
  rep->options = options;
  rep->file = std::move(file);
  rep->index_block.reset(new Block(index_contents));
  std::unique_ptr<TableReader> reader(new TableReader(rep));

  // Filter block (best-effort: a table without one still works).
  if (options.filter_policy != nullptr) {
    BlockContents meta_contents;
    if (ReadBlock(rep->file.get(), footer.metaindex_handle(), &meta_contents)
            .ok()) {
      Block meta_block(meta_contents);
      std::unique_ptr<Iterator> it(
          meta_block.NewIterator(BytewiseComparator()));
      it->Seek("filter.pmblade.BloomFilter");
      if (it->Valid() && it->key() == Slice("filter.pmblade.BloomFilter")) {
        Slice v = it->value();
        BlockHandle filter_handle;
        if (filter_handle.DecodeFrom(&v).ok()) {
          BlockContents filter_contents;
          if (ReadBlock(rep->file.get(), filter_handle, &filter_contents)
                  .ok()) {
            rep->filter_data.assign(filter_contents.data.data(),
                                    filter_contents.data.size());
            if (filter_contents.heap_allocated) {
              delete[] filter_contents.data.data();
            }
            rep->filter.reset(new FilterBlockReader(
                options.filter_policy, Slice(rep->filter_data)));
          }
        }
      }
    }
  }

  *table = std::move(reader);
  return Status::OK();
}

TableReader::TableReader(Rep* rep) : rep_(rep) {}

TableReader::~TableReader() = default;

namespace {

/// A block's iterator that keeps the block alive while it runs: the block
/// is shared with the block cache, or owned alone when it is not cached.
class BlockHolderIterator final : public Iterator {
 public:
  BlockHolderIterator(std::shared_ptr<Block> block, const Comparator* cmp)
      : block_(std::move(block)), iter_(block_->NewIterator(cmp)) {}
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
  std::shared_ptr<Block> block_;
  std::unique_ptr<Iterator> iter_;
};

}  // namespace

Iterator* TableReader::NewBlockIterator(const Slice& index_value) const {
  Rep* r = rep_.get();
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);

  std::shared_ptr<Block> block;
  if (r->options.block_cache != nullptr) {
    block = r->options.block_cache->Lookup(r->options.file_number,
                                           handle.offset());
  }
  if (block == nullptr) {
    BlockContents contents;
    s = ReadBlock(r->file.get(), handle, &contents);
    if (!s.ok()) return NewErrorIterator(s);
    block = std::make_shared<Block>(contents);
    if (r->options.block_cache != nullptr && contents.cachable) {
      r->options.block_cache->Insert(r->options.file_number, handle.offset(),
                                     block, block->size());
    }
  }
  return new BlockHolderIterator(std::move(block), r->options.comparator);
}

namespace {

/// Two-level iterator: walks the index block; per index entry opens the data
/// block via the table's block-reader function.
class TwoLevelIterator final : public Iterator {
 public:
  using BlockFunction = Iterator* (*)(void* arg, const Slice& index_value);

  TwoLevelIterator(Iterator* index_iter, BlockFunction block_function,
                   void* arg)
      : index_iter_(index_iter), block_function_(block_function), arg_(arg) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }
  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }
  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }
  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }
  void Prev() override {
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }
  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(Iterator* iter) {
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      status_ = data_iter_->status();
    }
    data_iter_.reset(iter);
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
      return;
    }
    Slice handle = index_iter_->value();
    if (data_iter_ != nullptr && handle == data_block_handle_) {
      return;  // already on this block
    }
    SetDataIterator(block_function_(arg_, handle));
    data_block_handle_.assign(handle.data(), handle.size());
  }

  std::unique_ptr<Iterator> index_iter_;
  BlockFunction block_function_;
  void* arg_;
  std::unique_ptr<Iterator> data_iter_;
  std::string data_block_handle_;
  Status status_;
};

}  // namespace

Iterator* TableReader::BlockReader(void* arg, const Slice& index_value) {
  return static_cast<TableReader*>(arg)->NewBlockIterator(index_value);
}

Iterator* TableReader::NewIterator() const {
  return new TwoLevelIterator(
      rep_->index_block->NewIterator(rep_->options.comparator),
      &TableReader::BlockReader, const_cast<TableReader*>(this));
}

Status TableReader::InternalGet(const Slice& key, void* arg,
                                void (*handle_result)(void*, const Slice&,
                                                      const Slice&),
                                bool* filter_rejected) const {
  Rep* r = rep_.get();
  if (filter_rejected != nullptr) *filter_rejected = false;
  std::unique_ptr<Iterator> index_iter(
      r->index_block->NewIterator(r->options.comparator));
  index_iter->Seek(key);
  if (index_iter->Valid()) {
    Slice handle_value = index_iter->value();
    BlockHandle handle;
    if (r->filter != nullptr) {
      Slice hv = handle_value;
      // The filter indexes user keys (snapshot-independent).
      if (handle.DecodeFrom(&hv).ok() &&
          !r->filter->KeyMayMatch(handle.offset(), ExtractUserKey(key))) {
        if (filter_rejected != nullptr) *filter_rejected = true;
        return Status::OK();  // definitively absent
      }
    }
    std::unique_ptr<Iterator> block_iter(NewBlockIterator(handle_value));
    block_iter->Seek(key);
    if (block_iter->Valid()) {
      handle_result(arg, block_iter->key(), block_iter->value());
    }
    PMBLADE_RETURN_IF_ERROR(block_iter->status());
  }
  return index_iter->status();
}

bool TableReader::has_filter() const { return rep_->filter != nullptr; }

}  // namespace pmblade
