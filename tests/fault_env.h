// FaultyEnv: an Env decorator that fails writable-file operations on
// command. Shared by the fault-injection and recovery-corner tests.
//
//   fail_writes          — every Append/Sync fails until cleared
//   fail_new_files       — NewWritableFile fails until cleared
//   writes_until_failure — countdown: the Nth write-side operation from now
//                          (and every one after it) fails; -1 disarms.
//   random_opens_until_failure — countdown on NewRandomAccessFile: the Nth
//                          open from now (and every one after it) fails;
//                          -1 disarms. Targets SSTable opens (table installs
//                          read the file back through this path).
//   fail_removes         — every RemoveFile fails until cleared (stuck WAL /
//                          obsolete-file GC).
//   fail_only_under      — when non-empty, the write faults above hit only
//                          files opened afterwards whose name contains it
//                          (one shard's WAL, say). Set before the files
//                          open.

#ifndef PMBLADE_TESTS_FAULT_ENV_H_
#define PMBLADE_TESTS_FAULT_ENV_H_

#include <atomic>
#include <memory>
#include <string>

#include "env/env.h"

namespace pmblade {
namespace test {

class FaultyEnv final : public Env {
 public:
  explicit FaultyEnv(Env* base) : base_(base) {}

  std::atomic<bool> fail_writes{false};
  std::atomic<bool> fail_new_files{false};
  std::atomic<bool> fail_removes{false};
  std::atomic<int> writes_until_failure{-1};        // -1 = no countdown
  std::atomic<int> random_opens_until_failure{-1};  // -1 = no countdown
  std::string fail_only_under;

  bool ShouldFail() { return fail_writes.load() ||
                             CountdownHit(&writes_until_failure); }

  /// Claims a countdown slot with one atomic CAS loop. The old
  /// load-check-fetch_sub version raced: two threads could both read
  /// remaining==1, both decrement, and the counter would sail past zero
  /// without either of them failing.
  static bool CountdownHit(std::atomic<int>* counter) {
    int remaining = counter->load();
    while (true) {
      if (remaining < 0) return false;  // disarmed
      if (remaining == 0) return true;  // exhausted: fail from here on
      if (counter->compare_exchange_weak(remaining, remaining - 1)) {
        return false;  // successfully consumed one pre-failure slot
      }
      // CAS failed: `remaining` was reloaded; re-evaluate.
    }
  }

  class FaultyWritableFile final : public WritableFile {
   public:
    FaultyWritableFile(std::unique_ptr<WritableFile> base, FaultyEnv* env,
                       bool targeted)
        : base_(std::move(base)), env_(env), targeted_(targeted) {}
    Status Append(const Slice& data) override {
      if (targeted_ && env_->ShouldFail()) {
        return Status::IOError("injected write fault");
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      if (targeted_ && env_->ShouldFail()) {
        return Status::IOError("injected sync fault");
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    FaultyEnv* env_;
    const bool targeted_;
  };

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fail_new_files.load()) {
      return Status::IOError("injected create fault");
    }
    std::unique_ptr<WritableFile> base_file;
    PMBLADE_RETURN_IF_ERROR(base_->NewWritableFile(fname, &base_file));
    const bool targeted = fail_only_under.empty() ||
                          fname.find(fail_only_under) != std::string::npos;
    result->reset(
        new FaultyWritableFile(std::move(base_file), this, targeted));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    if (CountdownHit(&random_opens_until_failure)) {
      return Status::IOError("injected open fault: " + fname);
    }
    return base_->NewRandomAccessFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    if (fail_removes.load()) {
      return Status::IOError("injected remove fault: " + fname);
    }
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* base_;
};

}  // namespace test
}  // namespace pmblade

#endif  // PMBLADE_TESTS_FAULT_ENV_H_
