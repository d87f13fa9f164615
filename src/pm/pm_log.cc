#include "pm/pm_log.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace pmblade {

namespace {
constexpr uint64_t kHeaderBytes = 64;
constexpr size_t kMaxNameBytes = kHeaderBytes - 13;
}  // namespace

struct PmLogEnv::Log {
  std::string name;
  /// Chain order. Changed only under mu_, and grown only by the log's
  /// single writer, which reads it without the lock.
  std::vector<Segment> segments;
};

/// One handle type for both directions: a writer appends to a log it
/// created, a reader walks a snapshot of a log's chain.
class PmLogFile final : public WritableFile, public SequentialFile {
 public:
  PmLogFile(PmLogEnv* env, PmPool* pool, std::shared_ptr<PmLogEnv::Log> log,
            std::vector<PmLogEnv::Segment> snapshot)
      : env_(env),
        pool_(pool),
        log_(std::move(log)),
        snapshot_(std::move(snapshot)) {}

  // ---- WritableFile (the log's only writer) ----

  Status Append(const Slice& data) override {
    if (data.empty()) return Status::OK();
    if (pool_->crash_sim_dead()) {
      return Status::IOError("pm pool: simulated crash");
    }
    std::vector<PmLogEnv::Segment>& chain = log_->segments;
    // Reserve every segment the bytes need before writing any of them, so
    // a full pool fails the append with nothing written.
    uint64_t room = 0;
    for (size_t i = tail_; i < chain.size(); ++i) {
      room += chain[i].size - kHeaderBytes - PmLogEnv::ValidLength(chain[i]);
    }
    const size_t reserved_from = chain.size();
    while (room < data.size()) {
      PmLogEnv::Segment seg;
      Status s = env_->AddSegment(log_.get(), &seg);
      if (!s.ok()) {
        env_->DropSegments(log_.get(), reserved_from);
        return s;
      }
      room += seg.size - kHeaderBytes;
    }

    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const PmLogEnv::Segment& seg = chain[tail_];
      const uint64_t len = PmLogEnv::ValidLength(seg);
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(seg.size - kHeaderBytes - len, left));
      if (n == 0) {
        ++tail_;
        continue;
      }
      char* dst = seg.base + kHeaderBytes + len;
      memcpy(dst, p, n);
      pool_->InjectWrite(n);
      pool_->Persist(dst, n);
      // The commit word moves only over persisted bytes.
      EncodeFixed64(seg.base, len + n);
      pool_->Persist(seg.base, 8);
      p += n;
      left -= n;
    }
    if (pool_->crash_sim_dead()) {
      // The pool died during the append: its bytes may not have reached
      // the durable image, so the append must not be acknowledged.
      return Status::IOError("pm pool: simulated crash");
    }
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

  // ---- SequentialFile ----

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t got = 0;
    while (got < n && read_seg_ < snapshot_.size()) {
      const PmLogEnv::Segment& seg = snapshot_[read_seg_];
      const uint64_t len = PmLogEnv::ValidLength(seg);
      if (read_off_ >= len) {
        ++read_seg_;
        read_off_ = 0;
        continue;
      }
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(len - read_off_, n - got));
      memcpy(scratch + got, seg.base + kHeaderBytes + read_off_, take);
      read_off_ += take;
      got += take;
    }
    if (got > 0) pool_->InjectRead(got, 1);
    *result = Slice(scratch, got);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    while (n > 0 && read_seg_ < snapshot_.size()) {
      const uint64_t len = PmLogEnv::ValidLength(snapshot_[read_seg_]);
      const uint64_t take = std::min(len - std::min(read_off_, len), n);
      read_off_ += take;
      n -= take;
      if (read_off_ >= len) {
        ++read_seg_;
        read_off_ = 0;
      }
    }
    return Status::OK();
  }

 private:
  PmLogEnv* const env_;
  PmPool* const pool_;
  const std::shared_ptr<PmLogEnv::Log> log_;
  size_t tail_ = 0;  // writer: first segment that may still have room

  const std::vector<PmLogEnv::Segment> snapshot_;  // reader's chain
  size_t read_seg_ = 0;
  uint64_t read_off_ = 0;
};

PmLogEnv::PmLogEnv(PmPool* pool, Env* base, bool create_in_pm)
    : pool_(pool), base_(base), create_in_pm_(create_in_pm) {
  // Rebuild the chains from the segment headers. A chain is only ever
  // grown at its end and freed from its end, so after a crash every log is
  // a prefix of what it was; anything past a gap is unreachable.
  std::map<std::string, std::map<uint32_t, Segment>> found;
  std::vector<uint64_t> unusable;
  for (const PmPool::ObjectInfo& info : pool_->ListObjects()) {
    if (info.kind != kPmLogObject) continue;
    char* data = pool_->DataFor(info.id);
    const size_t name_len = static_cast<uint8_t>(data[12]);
    if (info.size <= kHeaderBytes || name_len == 0 ||
        name_len > kMaxNameBytes) {
      unusable.push_back(info.id);
      continue;
    }
    Segment seg;
    seg.id = info.id;
    seg.base = data;
    seg.size = info.size;
    found[std::string(data + 13, name_len)][DecodeFixed32(data + 8)] = seg;
  }
  for (auto& [name, by_position] : found) {
    auto log = std::make_shared<Log>();
    log->name = name;
    for (const auto& [position, seg] : by_position) {
      if (position == log->segments.size()) {
        log->segments.push_back(seg);
        segment_bytes_ += seg.size;
      } else {
        unusable.push_back(seg.id);
      }
    }
    if (log->segments.empty()) continue;
    logs_[name] = std::move(log);
  }
  for (uint64_t id : unusable) pool_->Free(id);
}

uint64_t PmLogEnv::ValidLength(const Segment& seg) {
  return std::min(DecodeFixed64(seg.base), seg.size - kHeaderBytes);
}

std::string PmLogEnv::BaseName(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  return slash == std::string::npos ? fname : fname.substr(slash + 1);
}

std::shared_ptr<PmLogEnv::Log> PmLogEnv::Find(const std::string& fname) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = logs_.find(BaseName(fname));
  return it == logs_.end() ? nullptr : it->second;
}

Status PmLogEnv::AddSegment(Log* log, Segment* seg) {
  char header[kHeaderBytes];
  memset(header, 0, sizeof(header));  // valid length 0
  EncodeFixed32(header + 8, static_cast<uint32_t>(log->segments.size()));
  header[12] = static_cast<char>(log->name.size());
  memcpy(header + 13, log->name.data(), log->name.size());
  PmPool::ObjectInfo info;
  char* data = nullptr;
  PMBLADE_RETURN_IF_ERROR(pool_->Allocate(kPmLogSegmentBytes, kPmLogObject,
                                          Slice(header, sizeof(header)),
                                          &info, &data));
  seg->id = info.id;
  seg->base = data;
  seg->size = info.size;
  std::lock_guard<std::mutex> lock(mu_);
  log->segments.push_back(*seg);
  segment_bytes_ += seg->size;
  return Status::OK();
}

void PmLogEnv::DropSegments(Log* log, size_t keep) {
  std::vector<Segment> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped.assign(log->segments.begin() + keep, log->segments.end());
    log->segments.resize(keep);
    for (const Segment& seg : dropped) segment_bytes_ -= seg.size;
  }
  for (auto it = dropped.rbegin(); it != dropped.rend(); ++it) {
    // Every byte of a segment is persisted, so its pages may go, and
    // before the Free, while no other object can own them. The log's
    // resident footprint is then the live logs, not every extent a log
    // ever used.
    pool_->ReleasePages(it->base, it->size);
    pool_->Free(it->id);
  }
}

Status PmLogEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  if (!create_in_pm_) return base_->NewWritableFile(fname, result);
  const std::string name = BaseName(fname);
  if (name.empty() || name.size() > kMaxNameBytes) {
    return Status::InvalidArgument("pm log name too long: " + name);
  }
  auto log = std::make_shared<Log>();
  log->name = name;
  std::shared_ptr<Log> replaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = logs_[name];
    replaced = std::move(slot);
    slot = log;
  }
  if (replaced != nullptr) DropSegments(replaced.get(), 0);
  result->reset(new PmLogFile(this, pool_, std::move(log), {}));
  return Status::OK();
}

Status PmLogEnv::NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) {
  std::shared_ptr<Log> log = Find(fname);
  if (log == nullptr) return base_->NewSequentialFile(fname, result);
  std::vector<Segment> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = log->segments;
  }
  result->reset(new PmLogFile(this, pool_, nullptr, std::move(snapshot)));
  return Status::OK();
}

Status PmLogEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  return base_->NewRandomAccessFile(fname, result);
}

bool PmLogEnv::FileExists(const std::string& fname) {
  return Find(fname) != nullptr || base_->FileExists(fname);
}

Status PmLogEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* result) {
  Status s = base_->GetChildren(dir, result);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : logs_) result->push_back(entry.first);
  return s;
}

Status PmLogEnv::RemoveFile(const std::string& fname) {
  std::shared_ptr<Log> log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = logs_.find(BaseName(fname));
    if (it != logs_.end()) {
      log = std::move(it->second);
      logs_.erase(it);
    }
  }
  if (log == nullptr) return base_->RemoveFile(fname);
  DropSegments(log.get(), 0);
  return Status::OK();
}

Status PmLogEnv::CreateDir(const std::string& dirname) {
  return base_->CreateDir(dirname);
}

Status PmLogEnv::RemoveDir(const std::string& dirname) {
  return base_->RemoveDir(dirname);
}

Status PmLogEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  std::shared_ptr<Log> log = Find(fname);
  if (log == nullptr) return base_->GetFileSize(fname, size);
  std::lock_guard<std::mutex> lock(mu_);
  *size = 0;
  for (const Segment& seg : log->segments) *size += ValidLength(seg);
  return Status::OK();
}

Status PmLogEnv::RenameFile(const std::string& src,
                            const std::string& target) {
  return base_->RenameFile(src, target);
}

uint64_t PmLogEnv::SegmentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_bytes_;
}

}  // namespace pmblade
