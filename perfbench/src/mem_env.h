// MemEnv: an Env whose files live in process memory.
//
// The benchmark puts the engine's WAL, manifest and SSTables here so that
// the simulated SsdModel (layered on top through SimEnv) is the only device
// the measurements see. A disk-backed Env would add the host filesystem's
// fsync and writeback jitter, which the program does not control. Sync is a
// no-op, exactly as on tmpfs; everything written stays readable for the
// lifetime of the MemEnv, so closing and reopening a DB over the same
// instance exercises real recovery.

#ifndef PERFBENCH_MEM_ENV_H_
#define PERFBENCH_MEM_ENV_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "env/env.h"

namespace perfbench {

class MemEnv final : public pmblade::Env {
 public:
  /// Shared contents of one file; handles keep it alive after removal.
  struct FileData {
    mutable std::mutex mu;
    std::string bytes;  // guarded by mu
  };

  pmblade::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<pmblade::SequentialFile>* result) override;
  pmblade::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<pmblade::RandomAccessFile>* result) override;
  pmblade::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<pmblade::WritableFile>* result) override;

  bool FileExists(const std::string& fname) override;
  pmblade::Status GetChildren(const std::string& dir,
                              std::vector<std::string>* result) override;
  pmblade::Status RemoveFile(const std::string& fname) override;
  pmblade::Status CreateDir(const std::string& dirname) override;
  pmblade::Status RemoveDir(const std::string& dirname) override;
  pmblade::Status GetFileSize(const std::string& fname,
                              uint64_t* size) override;
  pmblade::Status RenameFile(const std::string& src,
                             const std::string& target) override;

 private:
  std::shared_ptr<FileData> Find(const std::string& fname) const;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileData>> files_;  // guarded by mu_
  std::set<std::string> dirs_;                              // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_ENV_H_
