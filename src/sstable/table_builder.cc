#include "sstable/table_builder.h"

#include <cassert>
#include <string>
#include <vector>

#include "memtable/internal_key.h"
#include "sstable/block_builder.h"
#include "sstable/filter_block.h"
#include "util/bloom.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

struct TableBuilder::Rep {
  Rep(const TableBuilderOptions& opt, WritableFile* f)
      : options(opt),
        file(f),
        data_block(opt.block_restart_interval),
        index_block(1),
        filter_block(opt.filter_policy != nullptr
                         ? new FilterBlockBuilder(opt.filter_policy)
                         : nullptr) {}

  TableBuilderOptions options;
  WritableFile* file;
  uint64_t offset = 0;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::string last_key;
  uint64_t num_entries = 0;
  bool closed = false;
  std::unique_ptr<FilterBlockBuilder> filter_block;

  // Deferred index entry: after a block finishes we wait for the first key
  // of the next block so we can emit a short separator key.
  bool pending_index_entry = false;
  BlockHandle pending_handle;

  std::string block_output;  // block + trailer, handed to the file at once
};

TableBuilder::TableBuilder(const TableBuilderOptions& options,
                           WritableFile* file)
    : rep_(new Rep(options, file)) {
  assert(options.comparator != nullptr);
  if (rep_->filter_block != nullptr) {
    rep_->filter_block->StartBlock(0);
  }
}

TableBuilder::~TableBuilder() = default;

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok()) return;
  if (r->num_entries > 0) {
    assert(r->options.comparator->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->options.comparator->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(r->last_key, Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->filter_block != nullptr) {
    // Filter on the user key so probes are snapshot-independent.
    r->filter_block->AddKey(ExtractUserKey(key));
  }

  r->last_key.assign(key.data(), key.size());
  ++r->num_entries;
  r->data_block.Add(key, value);

  if (r->data_block.CurrentSizeEstimate() >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok() || r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  if (r->status.ok()) {
    r->pending_index_entry = true;
    r->status = r->file->Flush();
  }
  if (r->filter_block != nullptr) {
    r->filter_block->StartBlock(r->offset);
  }
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  WriteRawBlock(block->Finish(), handle);
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& block_contents,
                                 BlockHandle* handle) {
  Rep* r = rep_.get();
  handle->set_offset(r->offset);
  handle->set_size(block_contents.size());
  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(kNoCompression);
  uint32_t crc = crc32c::Value(block_contents.data(), block_contents.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  // One Append per block: the block and its trailer are one device write.
  r->block_output.assign(block_contents.data(), block_contents.size());
  r->block_output.append(trailer, kBlockTrailerSize);
  r->status = r->file->Append(Slice(r->block_output));
  if (r->status.ok()) r->offset += r->block_output.size();
}

Status TableBuilder::Finish() {
  Rep* r = rep_.get();
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle, metaindex_block_handle, index_block_handle;

  // Filter block.
  if (r->status.ok() && r->filter_block != nullptr) {
    WriteRawBlock(r->filter_block->Finish(), &filter_block_handle);
  }

  // Metaindex block.
  if (r->status.ok()) {
    BlockBuilder meta_index_block(r->options.block_restart_interval);
    if (r->filter_block != nullptr) {
      std::string key = "filter.pmblade.BloomFilter";
      std::string handle_encoding;
      filter_block_handle.EncodeTo(&handle_encoding);
      meta_index_block.Add(key, Slice(handle_encoding));
    }
    WriteBlock(&meta_index_block, &metaindex_block_handle);
  }

  // Index block.
  if (r->status.ok()) {
    if (r->pending_index_entry) {
      r->options.comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(r->last_key, Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Footer.
  if (r->status.ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(footer_encoding);
    if (r->status.ok()) {
      r->offset += footer_encoding.size();
    }
  }
  return r->status;
}

void TableBuilder::Abandon() {
  rep_->closed = true;
}

uint64_t TableBuilder::NumEntries() const { return rep_->num_entries; }
uint64_t TableBuilder::FileSize() const { return rep_->offset; }
Status TableBuilder::status() const { return rep_->status; }

}  // namespace pmblade
