// PmLogEnv / PmLogFile: append-only log files kept in the PM pool.
//
// A PM log is a chain of pool objects of kind kPmLogObject ("segments"),
// each kPmLogSegmentBytes long, allocated as appends need them:
//
//   [header: 64 B]
//     0..7    fixed64 valid length: payload bytes of this segment that
//             hold appended data (the commit word)
//     8..11   fixed32 position of the segment in its log's chain
//     12      uint8   name length
//     13..63  the log's file name (basename)
//   [payload]
//
// The header is persisted before the pool makes the segment crash-visible,
// with a valid length of 0. An append copies its bytes into the payload and
// persists them, and only then stores and persists the valid-length word,
// so the word never covers unpersisted bytes. Stale bytes a reused extent
// still holds lie beyond the valid length and are never read. Sync and
// Close therefore add nothing: an append is durable when it returns.
//
// An append reserves every segment it needs before writing any byte. If the
// pool has no room, it returns Busy having written nothing, so the writer's
// framing stays where it was and a later retry is safe. Removing a log
// frees its segments last first, so a crash mid-way leaves a prefix of the
// log, and drops their resident pages.
//
// PmLogEnv is the Env a DB hands its write-ahead logs to. New logs go to the
// pool (or to the base Env when created with `create_in_pm` false). Reads,
// listings, size queries and removals see logs on both devices, so a DB
// reopened with the other setting still replays and retires every log.

#ifndef PMBLADE_PM_PM_LOG_H_
#define PMBLADE_PM_PM_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"
#include "pm/pm_pool.h"

namespace pmblade {

/// Pool object kind of a log segment (PM table kinds are in
/// pmtable/l0_table.h).
constexpr uint32_t kPmLogObject = 5;

/// Size of a segment, header included.
constexpr uint64_t kPmLogSegmentBytes = 64 << 10;

class PmLogEnv final : public Env {
 public:
  /// Indexes the log segments already in `pool`. Neither pointer is owned;
  /// both must outlive the env and every file it opened.
  PmLogEnv(PmPool* pool, Env* base, bool create_in_pm);

  /// Creates (replacing any log of that name) an empty log.
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;

  bool FileExists(const std::string& fname) override;
  /// The base Env's children plus the name of every PM log.
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  /// Frees a PM log's segments. Must not race an open writer of the same
  /// log.
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

  /// Pool bytes held by log segments (they count in the pool's used bytes).
  uint64_t SegmentBytes() const;

 private:
  friend class PmLogFile;

  struct Segment {
    uint64_t id = 0;
    char* base = nullptr;  // header; the payload follows it
    uint64_t size = 0;     // object size, header included
  };
  struct Log;

  /// Payload bytes of `seg` that hold appended data.
  static uint64_t ValidLength(const Segment& seg);
  static std::string BaseName(const std::string& fname);
  std::shared_ptr<Log> Find(const std::string& fname) const;
  /// Allocates the next segment of `log`'s chain (header persisted, valid
  /// length 0) and appends it to the chain.
  Status AddSegment(Log* log, Segment* seg);
  /// Cuts `log`'s chain to its first `keep` segments, freeing the rest
  /// last first.
  void DropSegments(Log* log, size_t keep);

  PmPool* const pool_;
  Env* const base_;
  const bool create_in_pm_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Log>> logs_;  // by basename
  uint64_t segment_bytes_ = 0;
};

}  // namespace pmblade

#endif  // PMBLADE_PM_PM_LOG_H_
