// CrashEnv: an Env decorator that simulates power failure.
//
// While "powered", every write is passed through to the base filesystem and
// the env records, per file, how many bytes have been made durable by Sync().
// PowerCut() then plays the role of the power failing and the machine
// rebooting:
//
//   * every file is truncated back to its synced prefix — data that was
//     appended (even Flush()ed or Close()d) but never Sync()ed is gone;
//   * optionally a random prefix of the unsynced tail survives instead
//     (`keep_unsynced`), cutting files mid-record the way a real device
//     does when some sectors of an in-flight write land and others do not;
//   * optionally the tail of the kept-but-unsynced region is torn
//     (`tear_last_block`): a few bytes are scribbled, modeling a sector that
//     was only partially programmed. Synced data is never damaged.
//
// After the cut the env is "dead": every mutating operation fails with
// IOError, like syscalls in a process that no longer exists. Directory
// metadata operations (create/rename/remove) are modeled as immediately
// durable, as on a journaling filesystem — so MANIFEST.tmp -> MANIFEST
// renames and WAL deletions take effect at the instant they are issued.
// ResetState() re-arms the env for the post-"reboot" reopen.
//
// The base env must be POSIX-backed (paths name real files): truncation and
// tearing are applied directly to the on-disk files.

#ifndef PMBLADE_ENV_CRASH_ENV_H_
#define PMBLADE_ENV_CRASH_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"
#include "util/random.h"

namespace pmblade {

struct PowerCutOptions {
  /// Keep a uniformly random prefix of each file's unsynced tail instead of
  /// dropping it entirely (this is what truncates WALs mid-record).
  bool keep_unsynced = false;
  /// Corrupt up to `tear_max_bytes` random bytes inside the final block of
  /// the kept unsynced region. No effect on synced bytes.
  bool tear_last_block = false;
  size_t tear_max_bytes = 8;
};

class CrashEnv final : public Env {
 public:
  /// `base` must outlive the CrashEnv. `seed` drives the keep/tear choices.
  explicit CrashEnv(Env* base, uint64_t seed = 0);

  // ---- crash control ----

  /// Simulates the power failing: applies the unsynced-data loss policy to
  /// every tracked file and marks the env dead. Idempotent (the second cut
  /// is a no-op). Thread-safe: may be called from a SyncPoint callback on
  /// an engine thread while other threads are mid-write.
  void PowerCut(const PowerCutOptions& options = PowerCutOptions());

  /// "Reboot": forgets all tracked state and revives the env. The current
  /// on-disk contents become the new baseline.
  void ResetState();

  bool dead() const;

  // ---- Env interface ----
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

 private:
  class CrashWritableFile;
  friend class CrashWritableFile;

  struct FileState {
    uint64_t size = 0;         // bytes appended through this env
    uint64_t synced_size = 0;  // durable prefix
  };

  Status DeadError() const {
    return Status::IOError("simulated power failure");
  }

  Env* base_;
  mutable std::mutex mu_;
  bool dead_ = false;
  Random rnd_;
  std::map<std::string, FileState> files_;
};

}  // namespace pmblade

#endif  // PMBLADE_ENV_CRASH_ENV_H_
