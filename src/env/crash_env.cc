#include "env/crash_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>

namespace pmblade {

namespace {

// Damage is applied to the real on-disk files (the base env is POSIX-backed
// by contract), bypassing the Env interface so it works while the env is
// already marked dead.
void TruncateOnDisk(const std::string& fname, uint64_t size) {
  ::truncate(fname.c_str(), static_cast<off_t>(size));
}

void CorruptByteOnDisk(const std::string& fname, uint64_t offset,
                       char xor_mask) {
  int fd = ::open(fname.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return;
  char b = 0;
  if (::pread(fd, &b, 1, static_cast<off_t>(offset)) == 1) {
    b ^= xor_mask;
    ::pwrite(fd, &b, 1, static_cast<off_t>(offset));
  }
  ::close(fd);
}

}  // namespace

/// Write handle that forwards to the base file but flushes each append, so
/// the on-disk length always matches the tracked length and PowerCut can
/// truncate to any byte inside it.
class CrashEnv::CrashWritableFile final : public WritableFile {
 public:
  CrashWritableFile(std::string fname, std::unique_ptr<WritableFile> base,
                    CrashEnv* env)
      : fname_(std::move(fname)), base_(std::move(base)), env_(env) {}
  ~CrashWritableFile() override {
    if (base_ != nullptr) Close();
  }

  Status Append(const Slice& data) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (env_->dead_) return env_->DeadError();
    PMBLADE_RETURN_IF_ERROR(base_->Append(data));
    // Push it to the kernel now: the base file's user-space buffer must stay
    // empty, otherwise a PowerCut truncation could be undone by a later
    // buffer flush from a closing handle.
    PMBLADE_RETURN_IF_ERROR(base_->Flush());
    env_->files_[fname_].size += data.size();
    return Status::OK();
  }

  Status Flush() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (env_->dead_) return env_->DeadError();
    return base_->Flush();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (env_->dead_) return env_->DeadError();
    PMBLADE_RETURN_IF_ERROR(base_->Sync());
    FileState& st = env_->files_[fname_];
    st.synced_size = st.size;
    return Status::OK();
  }

  Status Close() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    Status s = base_->Close();  // buffer is empty; releases the fd only
    base_.reset();
    return env_->dead_ ? env_->DeadError() : s;
  }

 private:
  std::string fname_;
  std::unique_ptr<WritableFile> base_;
  CrashEnv* env_;
};

CrashEnv::CrashEnv(Env* base, uint64_t seed) : base_(base), rnd_(seed) {}

void CrashEnv::PowerCut(const PowerCutOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return;
  dead_ = true;
  for (const auto& [fname, st] : files_) {
    uint64_t keep = st.synced_size;
    const uint64_t unsynced = st.size - st.synced_size;
    if (options.keep_unsynced && unsynced > 0) {
      keep += rnd_.Uniform(unsynced + 1);
    }
    TruncateOnDisk(fname, keep);
    if (options.tear_last_block && keep > st.synced_size) {
      // Partially-programmed final sector: scribble a few bytes of the kept
      // unsynced tail. Never touches the synced prefix.
      const uint64_t lo = std::max<uint64_t>(
          st.synced_size, keep > 512 ? keep - 512 : 0);
      const size_t n = 1 + rnd_.Uniform(options.tear_max_bytes);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t off = lo + rnd_.Uniform(keep - lo);
        CorruptByteOnDisk(fname, off,
                          static_cast<char>(1 + rnd_.Uniform(255)));
      }
    }
  }
}

void CrashEnv::ResetState() {
  std::lock_guard<std::mutex> lock(mu_);
  files_.clear();
  dead_ = false;
}

bool CrashEnv::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

Status CrashEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) {
  return base_->NewSequentialFile(fname, result);
}

Status CrashEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  return base_->NewRandomAccessFile(fname, result);
}

Status CrashEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return DeadError();
  std::unique_ptr<WritableFile> base_file;
  PMBLADE_RETURN_IF_ERROR(base_->NewWritableFile(fname, &base_file));
  files_[fname] = FileState{};  // creation truncates
  result->reset(new CrashWritableFile(fname, std::move(base_file), this));
  return Status::OK();
}

bool CrashEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status CrashEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status CrashEnv::RemoveFile(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return DeadError();
  PMBLADE_RETURN_IF_ERROR(base_->RemoveFile(fname));
  files_.erase(fname);  // metadata ops are journaled: durable immediately
  return Status::OK();
}

Status CrashEnv::CreateDir(const std::string& dirname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return DeadError();
  return base_->CreateDir(dirname);
}

Status CrashEnv::RemoveDir(const std::string& dirname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return DeadError();
  return base_->RemoveDir(dirname);
}

Status CrashEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status CrashEnv::RenameFile(const std::string& src,
                            const std::string& target) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return DeadError();
  PMBLADE_RETURN_IF_ERROR(base_->RenameFile(src, target));
  auto it = files_.find(src);
  if (it != files_.end()) {
    files_[target] = it->second;
    files_.erase(it);
  } else {
    files_.erase(target);
  }
  return Status::OK();
}

}  // namespace pmblade
