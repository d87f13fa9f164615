#include "mem_env.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

using pmblade::Slice;
using pmblade::Status;

namespace {

class MemSequentialFile final : public pmblade::SequentialFile {
 public:
  explicit MemSequentialFile(std::shared_ptr<MemEnv::FileData> data)
      : data_(std::move(data)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    std::lock_guard<std::mutex> lock(data_->mu);
    const size_t avail =
        pos_ < data_->bytes.size() ? data_->bytes.size() - pos_ : 0;
    const size_t take = std::min(n, avail);
    if (take > 0) std::memcpy(scratch, data_->bytes.data() + pos_, take);
    pos_ += take;
    *result = Slice(scratch, take);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  std::shared_ptr<MemEnv::FileData> data_;
  size_t pos_ = 0;
};

class MemRandomAccessFile final : public pmblade::RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemEnv::FileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    std::lock_guard<std::mutex> lock(data_->mu);
    if (offset > data_->bytes.size()) {
      *result = Slice(scratch, 0);
      return Status::IOError("read past end of file");
    }
    const size_t take = std::min<uint64_t>(n, data_->bytes.size() - offset);
    if (take > 0) std::memcpy(scratch, data_->bytes.data() + offset, take);
    *result = Slice(scratch, take);
    return Status::OK();
  }

 private:
  std::shared_ptr<MemEnv::FileData> data_;
};

class MemWritableFile final : public pmblade::WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<MemEnv::FileData> data)
      : data_(std::move(data)) {}

  Status Append(const Slice& data) override {
    std::lock_guard<std::mutex> lock(data_->mu);
    data_->bytes.append(data.data(), data.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemEnv::FileData> data_;
};

std::string Parent(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::shared_ptr<MemEnv::FileData> MemEnv::Find(const std::string& fname) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(fname);
  return it == files_.end() ? nullptr : it->second;
}

Status MemEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<pmblade::SequentialFile>* result) {
  auto data = Find(fname);
  if (data == nullptr) return Status::NotFound(fname);
  result->reset(new MemSequentialFile(std::move(data)));
  return Status::OK();
}

Status MemEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<pmblade::RandomAccessFile>* result) {
  auto data = Find(fname);
  if (data == nullptr) return Status::NotFound(fname);
  result->reset(new MemRandomAccessFile(std::move(data)));
  return Status::OK();
}

Status MemEnv::NewWritableFile(
    const std::string& fname,
    std::unique_ptr<pmblade::WritableFile>* result) {
  auto data = std::make_shared<FileData>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dirs_.count(Parent(fname)) == 0) {
      return Status::NotFound(fname + ": no such directory");
    }
    files_[fname] = data;  // truncates an existing file, like O_TRUNC
  }
  result->reset(new MemWritableFile(std::move(data)));
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(fname) > 0 || dirs_.count(fname) > 0;
}

Status MemEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  result->clear();
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) return Status::NotFound(dir);
  for (const auto& [path, data] : files_) {
    if (Parent(path) == dir) result->push_back(path.substr(dir.size() + 1));
  }
  for (const auto& path : dirs_) {
    if (Parent(path) == dir) result->push_back(path.substr(dir.size() + 1));
  }
  return Status::OK();
}

Status MemEnv::RemoveFile(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(fname) == 0) return Status::NotFound(fname);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& dirname) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.insert(dirname);
  return Status::OK();
}

Status MemEnv::RemoveDir(const std::string& dirname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.erase(dirname) == 0) return Status::NotFound(dirname);
  return Status::OK();
}

Status MemEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  auto data = Find(fname);
  if (data == nullptr) {
    *size = 0;
    return Status::NotFound(fname);
  }
  std::lock_guard<std::mutex> lock(data->mu);
  *size = data->bytes.size();
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& target) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound(src);
  files_[target] = it->second;
  files_.erase(src);
  return Status::OK();
}

}  // namespace perfbench
