// Logical WAL records for cross-shard two-phase commit.
//
// A shard's WAL normally carries WriteBatch reps, whose first 8 bytes are the
// group's base sequence number. Sequence numbers are bounded by
// kMaxSequenceNumber (2^56 - 1), so a rep can never begin with eight 0xFF
// bytes — that impossible prefix is the magic that marks a txn record. A
// reader that sees the magic dispatches on the 1-byte tag that follows:
//
//   prepare  : magic(8) | kPrepare(1)  | txn_id(8) | nparts(4) | part(4)...
//              | batch rep (to end of record)
//   commit   : magic(8) | kCommit(1)   | txn_id(8) | base_seq(8)
//   rollback : magic(8) | kRollback(1) | txn_id(8)
//
// The prepare payload is the participating shard list plus the shard-local
// sub-batch rep (base sequence still zero: sequences are assigned at commit).
// The commit record carries the base sequence the payload was published at so
// replay reproduces the exact same sequence assignment.
#ifndef PMBLADE_MEMTABLE_TXN_RECORD_H_
#define PMBLADE_MEMTABLE_TXN_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/slice.h"

namespace pmblade {

// Eight 0xFF bytes: > kMaxSequenceNumber, so no WriteBatch rep starts with it.
constexpr uint64_t kTxnRecordMagic = ~uint64_t{0};

enum class TxnRecordType : uint8_t {
  kPrepare = 1,
  kCommit = 2,
  kRollback = 3,
};

struct TxnRecord {
  TxnRecordType type = TxnRecordType::kPrepare;
  uint64_t txn_id = 0;
  std::vector<uint32_t> participants;  // prepare only
  Slice payload;                       // prepare only: sub-batch rep
  uint64_t base_seq = 0;               // commit only
};

// True iff `record` (a logical WAL record) is a txn record, not a batch rep.
bool IsTxnRecord(const Slice& record);
// True iff `record` is a txn record of kind `type`.
bool IsTxnRecordOfType(const Slice& record, TxnRecordType type);

void EncodePrepareRecord(uint64_t txn_id,
                         const std::vector<uint32_t>& participants,
                         const Slice& batch_rep, std::string* out);
void EncodeCommitRecord(uint64_t txn_id, uint64_t base_seq, std::string* out);
void EncodeRollbackRecord(uint64_t txn_id, std::string* out);

// Decodes any of the three record kinds. `out->payload` aliases `record`.
Status DecodeTxnRecord(const Slice& record, TxnRecord* out);

}  // namespace pmblade

#endif  // PMBLADE_MEMTABLE_TXN_RECORD_H_
