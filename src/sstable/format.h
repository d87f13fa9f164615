// On-disk SSTable format shared by builder and reader:
//
//   [data block 1] ... [data block N]
//   [filter block]                     (bloom filters, one per 2 KiB of data)
//   [metaindex block]                  (maps "filter.<policy>" -> handle)
//   [index block]                      (separator key -> data block handle)
//   [footer: metaindex handle, index handle, magic]   fixed 48 bytes
//
// Each block is stored as: contents | compression type (1 B) | crc32c (4 B).

#ifndef PMBLADE_SSTABLE_FORMAT_H_
#define PMBLADE_SSTABLE_FORMAT_H_

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {

class BlockHandle {
 public:
  /// Maximum encoded length of a BlockHandle (two varint64s).
  static constexpr size_t kMaxEncodedLength = 10 + 10;

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_ = 0;
  uint64_t size_ = 0;
};

class Footer {
 public:
  static constexpr size_t kEncodedLength =
      2 * BlockHandle::kMaxEncodedLength + 8;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

constexpr uint64_t kTableMagicNumber = 0x706d626c61646531ull;  // "pmblade1"

/// A block's trailer type byte. Blocks are stored uncompressed; any other
/// type reads as Corruption.
enum CompressionType : uint8_t {
  kNoCompression = 0x0,
};

/// 1-byte compression type + 4-byte crc appended to every block.
constexpr size_t kBlockTrailerSize = 5;

struct BlockContents {
  Slice data;
  bool cachable = false;       // true if data is not backed by the file read
  bool heap_allocated = false; // true if caller owns data.data()
};

/// Reads a block, verifying its trailer CRC and type byte.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result);

}  // namespace pmblade

#endif  // PMBLADE_SSTABLE_FORMAT_H_
