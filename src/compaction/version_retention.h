// VersionRetention: the one rule that decides which versions of a key
// survive a merge. Internal compaction, major compaction and the baseline
// engines' leveled compactions all feed their merged records through it.
//
// Records arrive in internal-key order (user key ascending, newest version
// first). For each user key the rule keeps
//   * the newest version;
//   * each older version while the version kept above it is newer than the
//     oldest live snapshot, so some snapshot may still read it;
// and, when the merge writes the bottom of its key range
// (`drop_tombstones`), it drops a newest-version tombstone every snapshot
// sees, together with everything under it. A key that does not parse is
// `Corruption`: no merge copies it into its output.

#ifndef PMBLADE_COMPACTION_VERSION_RETENTION_H_
#define PMBLADE_COMPACTION_VERSION_RETENTION_H_

#include <string>

#include "memtable/internal_key.h"
#include "util/status.h"

namespace pmblade {

class VersionRetention {
 public:
  VersionRetention(const Comparator* user_comparator,
                   SequenceNumber oldest_snapshot, bool drop_tombstones)
      : ucmp_(user_comparator),
        oldest_snapshot_(oldest_snapshot),
        drop_tombstones_(drop_tombstones) {}

  /// Decides the next record of the stream: sets `*keep`, or returns
  /// Corruption (state unchanged) when `internal_key` does not parse.
  Status Decide(const Slice& internal_key, bool* keep) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(internal_key, &parsed)) {
      return Status::Corruption("merge input: bad internal key");
    }
    if (has_last_ &&
        ucmp_->Compare(parsed.user_key, Slice(last_user_key_)) == 0) {
      // An older version: obsolete once the version above it is visible to
      // every snapshot; otherwise kept, and it becomes the new floor.
      *keep = last_visible_seq_ > oldest_snapshot_;
      if (*keep) last_visible_seq_ = parsed.sequence;
      return Status::OK();
    }
    last_user_key_.assign(parsed.user_key.data(), parsed.user_key.size());
    has_last_ = true;
    last_visible_seq_ = parsed.sequence;
    *keep = !(drop_tombstones_ && parsed.type == kTypeDeletion &&
              parsed.sequence <= oldest_snapshot_);
    return Status::OK();
  }

 private:
  const Comparator* ucmp_;
  SequenceNumber oldest_snapshot_;
  bool drop_tombstones_;
  std::string last_user_key_;
  SequenceNumber last_visible_seq_ = 0;
  bool has_last_ = false;
};

}  // namespace pmblade

#endif  // PMBLADE_COMPACTION_VERSION_RETENTION_H_
