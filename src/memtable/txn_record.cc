#include "memtable/txn_record.h"

#include "util/coding.h"

namespace pmblade {

namespace {
constexpr size_t kMagicSize = 8;
constexpr size_t kTagOffset = kMagicSize;
constexpr size_t kTxnIdOffset = kTagOffset + 1;
constexpr size_t kCommonSize = kTxnIdOffset + 8;  // magic | tag | txn_id
}  // namespace

bool IsTxnRecord(const Slice& record) {
  return record.size() >= kCommonSize &&
         DecodeFixed64(record.data()) == kTxnRecordMagic;
}

bool IsTxnRecordOfType(const Slice& record, TxnRecordType type) {
  return IsTxnRecord(record) &&
         static_cast<uint8_t>(record[kTagOffset]) == static_cast<uint8_t>(type);
}

static void PutCommon(TxnRecordType type, uint64_t txn_id, std::string* out) {
  out->clear();
  PutFixed64(out, kTxnRecordMagic);
  out->push_back(static_cast<char>(type));
  PutFixed64(out, txn_id);
}

void EncodePrepareRecord(uint64_t txn_id,
                         const std::vector<uint32_t>& participants,
                         const Slice& batch_rep, std::string* out) {
  PutCommon(TxnRecordType::kPrepare, txn_id, out);
  PutFixed32(out, static_cast<uint32_t>(participants.size()));
  for (uint32_t shard : participants) PutFixed32(out, shard);
  out->append(batch_rep.data(), batch_rep.size());
}

void EncodeCommitRecord(uint64_t txn_id, uint64_t base_seq, std::string* out) {
  PutCommon(TxnRecordType::kCommit, txn_id, out);
  PutFixed64(out, base_seq);
}

void EncodeRollbackRecord(uint64_t txn_id, std::string* out) {
  PutCommon(TxnRecordType::kRollback, txn_id, out);
}

Status DecodeTxnRecord(const Slice& record, TxnRecord* out) {
  if (!IsTxnRecord(record)) {
    return Status::Corruption("not a txn record");
  }
  const uint8_t tag = static_cast<uint8_t>(record[kTagOffset]);
  out->txn_id = DecodeFixed64(record.data() + kTxnIdOffset);
  out->participants.clear();
  out->payload = Slice();
  out->base_seq = 0;
  switch (tag) {
    case static_cast<uint8_t>(TxnRecordType::kPrepare): {
      out->type = TxnRecordType::kPrepare;
      if (record.size() < kCommonSize + 4) {
        return Status::Corruption("truncated prepare record");
      }
      const uint32_t n = DecodeFixed32(record.data() + kCommonSize);
      const size_t payload_off = kCommonSize + 4 + 4ull * n;
      if (n == 0 || record.size() < payload_off) {
        return Status::Corruption("truncated prepare participant list");
      }
      out->participants.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        out->participants.push_back(
            DecodeFixed32(record.data() + kCommonSize + 4 + 4ull * i));
      }
      out->payload =
          Slice(record.data() + payload_off, record.size() - payload_off);
      return Status::OK();
    }
    case static_cast<uint8_t>(TxnRecordType::kCommit):
      out->type = TxnRecordType::kCommit;
      if (record.size() < kCommonSize + 8) {
        return Status::Corruption("truncated commit record");
      }
      out->base_seq = DecodeFixed64(record.data() + kCommonSize);
      return Status::OK();
    case static_cast<uint8_t>(TxnRecordType::kRollback):
      out->type = TxnRecordType::kRollback;
      return Status::OK();
    default:
      return Status::Corruption("unknown txn record tag");
  }
}

}  // namespace pmblade
