#include "memtable/wal.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {
namespace wal {

Writer::Writer(WritableFile* dest, uint64_t dest_length)
    : dest_(dest), block_offset_(dest_length % kBlockSize) {
  for (int i = 0; i <= kMaxRecordType; ++i) {
    char t = static_cast<char>(i);
    type_crc_[i] = crc32c::Value(&t, 1);
  }
}

namespace {
// A call's buffer above this size is released after the Append, so one
// large group does not pin its capacity for the life of the log.
constexpr size_t kMaxRetainedBuffer = 2 * kBlockSize;
}  // namespace

Status Writer::AddRecord(const Slice& record) { return AddRecords(&record, 1); }

Status Writer::AddRecords(const Slice* records, size_t n) {
  size_t bytes = 0;
  for (size_t i = 0; i < n; ++i) bytes += records[i].size();
  buf_.clear();
  // Payload plus, per fragment, a header and at most a header's worth of
  // block-tail padding.
  buf_.reserve(bytes + (n + bytes / kBlockSize + 1) * 2 * kHeaderSize);

  const size_t start_offset = block_offset_;
  for (size_t i = 0; i < n; ++i) EncodeRecord(records[i]);

  Status s = dest_->Append(Slice(buf_));
  if (s.ok()) {
    s = dest_->Flush();
  } else {
    // The file did not take the bytes; keep the framing where the file is.
    block_offset_ = start_offset;
  }
  if (buf_.capacity() > kMaxRetainedBuffer) std::string().swap(buf_);
  return s;
}

void Writer::EncodeRecord(const Slice& record) {
  const char* ptr = record.data();
  size_t left = record.size();
  bool begin = true;
  do {
    const size_t leftover = kBlockSize - block_offset_;
    if (leftover < kHeaderSize) {
      // Pad the block trailer with zeroes and move to a new block.
      buf_.append(leftover, '\0');
      block_offset_ = 0;
    }

    const size_t avail = kBlockSize - block_offset_ - kHeaderSize;
    const size_t fragment_length = (left < avail) ? left : avail;

    RecordType type;
    const bool end = (left == fragment_length);
    if (begin && end) type = kFullType;
    else if (begin) type = kFirstType;
    else if (end) type = kLastType;
    else type = kMiddleType;

    EncodeFragment(type, ptr, fragment_length);
    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (left > 0);
}

void Writer::EncodeFragment(RecordType type, const char* ptr, size_t length) {
  char header[kHeaderSize];
  header[4] = static_cast<char>(length & 0xff);
  header[5] = static_cast<char>(length >> 8);
  header[6] = static_cast<char>(type);

  uint32_t crc = crc32c::Extend(type_crc_[type], ptr, length);
  EncodeFixed32(header, crc32c::Mask(crc));

  buf_.append(header, kHeaderSize);
  buf_.append(ptr, length);
  block_offset_ += kHeaderSize + length;
}

Reader::Reader(SequentialFile* file, Reporter* reporter, bool checksum)
    : file_(file),
      reporter_(reporter),
      checksum_(checksum),
      backing_store_(new char[kBlockSize]) {}

void Reader::ReportCorruption(uint64_t bytes, const char* reason) {
  ReportDrop(bytes, Status::Corruption(reason));
}

void Reader::ReportDrop(uint64_t bytes, const Status& reason) {
  if (reporter_ != nullptr) {
    reporter_->Corruption(static_cast<size_t>(bytes), reason);
  }
}

bool Reader::ReadRecord(Slice* record, std::string* scratch) {
  scratch->clear();
  record->clear();
  bool in_fragmented_record = false;

  Slice fragment;
  while (true) {
    const unsigned int record_type = ReadPhysicalRecord(&fragment);
    switch (record_type) {
      case kFullType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end");
        }
        *record = fragment;
        return true;

      case kFirstType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end");
        }
        scratch->assign(fragment.data(), fragment.size());
        in_fragmented_record = true;
        break;

      case kMiddleType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(), "missing start of record");
        } else {
          scratch->append(fragment.data(), fragment.size());
        }
        break;

      case kLastType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(), "missing start of record");
        } else {
          scratch->append(fragment.data(), fragment.size());
          *record = Slice(*scratch);
          return true;
        }
        break;

      case kEof:
        if (in_fragmented_record) {
          // Writer died mid-record; drop the partial tail.
          scratch->clear();
        }
        return false;

      case kBadRecord:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "error in middle of record");
          in_fragmented_record = false;
          scratch->clear();
        }
        break;

      default:
        ReportCorruption(fragment.size() + scratch->size(),
                         "unknown record type");
        in_fragmented_record = false;
        scratch->clear();
        break;
    }
  }
}

unsigned int Reader::ReadPhysicalRecord(Slice* result) {
  while (true) {
    if (buffer_.size() < kHeaderSize) {
      if (!eof_) {
        buffer_.clear();
        Status status =
            file_->Read(kBlockSize, &buffer_, backing_store_.get());
        if (!status.ok()) {
          buffer_.clear();
          ReportDrop(kBlockSize, status);
          eof_ = true;
          return kEof;
        }
        if (buffer_.size() < kBlockSize) eof_ = true;
        continue;
      }
      // Truncated header at EOF: assume writer died mid-header.
      buffer_.clear();
      return kEof;
    }

    const char* header = buffer_.data();
    const uint32_t a = static_cast<uint8_t>(header[4]);
    const uint32_t b = static_cast<uint8_t>(header[5]);
    const unsigned int type = static_cast<uint8_t>(header[6]);
    const uint32_t length = a | (b << 8);
    if (kHeaderSize + length > buffer_.size()) {
      size_t drop_size = buffer_.size();
      buffer_.clear();
      if (!eof_) {
        ReportCorruption(drop_size, "bad record length");
        return kBadRecord;
      }
      return kEof;
    }

    if (type == kZeroType && length == 0) {
      // Zeroed padding; skip the rest of the buffer.
      buffer_.clear();
      return kBadRecord;
    }

    if (checksum_) {
      uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
      uint32_t actual_crc = crc32c::Value(header + 6, 1 + length);
      if (actual_crc != expected_crc) {
        size_t drop_size = buffer_.size();
        buffer_.clear();
        ReportCorruption(drop_size, "checksum mismatch");
        return kBadRecord;
      }
    }

    *result = Slice(header + kHeaderSize, length);
    buffer_.remove_prefix(kHeaderSize + length);
    return type;
  }
}

}  // namespace wal
}  // namespace pmblade
