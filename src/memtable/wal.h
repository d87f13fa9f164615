// Write-ahead log in the LevelDB record format: the file is a sequence of
// 32 KiB blocks; each record carries crc32c, length and a type marking it as
// a full record or the first/middle/last fragment of a spanning record.
// The manifest does not use this format: it is one CRC'd file rewritten
// whole (core/manifest.cc).

#ifndef PMBLADE_MEMTABLE_WAL_H_
#define PMBLADE_MEMTABLE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {
namespace wal {

enum RecordType : uint8_t {
  kZeroType = 0,  // preallocated/zeroed space
  kFullType = 1,
  kFirstType = 2,
  kMiddleType = 3,
  kLastType = 4,
};
constexpr int kMaxRecordType = kLastType;

constexpr size_t kBlockSize = 32768;
/// crc32c (4) + length (2) + type (1)
constexpr size_t kHeaderSize = 4 + 2 + 1;

class Writer {
 public:
  /// Does not take ownership of `dest`; the file must be freshly created (or
  /// pass `dest_length` = current size to append).
  explicit Writer(WritableFile* dest, uint64_t dest_length = 0);

  /// Frames `record` (every fragment, plus any zero padding at a block
  /// tail) into one buffer and hands it to the file with exactly one Append
  /// and one Flush: one device write per record.
  Status AddRecord(const Slice& record);

  /// Appends `n` records with one Append and one Flush. The bytes written
  /// are identical to `n` AddRecord calls.
  Status AddRecords(const Slice* records, size_t n);

 private:
  void EncodeRecord(const Slice& record);
  void EncodeFragment(RecordType type, const char* ptr, size_t length);

  WritableFile* dest_;
  size_t block_offset_;
  uint32_t type_crc_[kMaxRecordType + 1];
  std::string buf_;  // framed bytes of the call in progress; reused
};

class Reader {
 public:
  /// Interface for corruption reporting during replay.
  class Reporter {
   public:
    virtual ~Reporter() = default;
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  /// Does not take ownership of `file` or `reporter` (both may outlive the
  /// Reader). If `checksum` is true, drops records failing CRC.
  Reader(SequentialFile* file, Reporter* reporter, bool checksum = true);

  /// Reads the next complete logical record into *record (which may point
  /// into *scratch). Returns false at EOF.
  bool ReadRecord(Slice* record, std::string* scratch);

 private:
  /// Return type extends RecordType with kEof and kBadRecord.
  static constexpr unsigned int kEof = kMaxRecordType + 1;
  static constexpr unsigned int kBadRecord = kMaxRecordType + 2;

  unsigned int ReadPhysicalRecord(Slice* result);
  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* file_;
  Reporter* reporter_;
  bool checksum_;
  std::unique_ptr<char[]> backing_store_;
  Slice buffer_;
  bool eof_ = false;
};

}  // namespace wal
}  // namespace pmblade

#endif  // PMBLADE_MEMTABLE_WAL_H_
