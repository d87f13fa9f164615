#include "pm/pm_pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace pmblade {

// On-media layout:
//   [header: 64 B]
//     0..7    magic "PMBLADE1"
//     8..15   fixed64 capacity (data area bytes)
//     16..19  fixed32 dir_slots
//     20..27  fixed64 next_id
//     28..31  fixed32 header crc (of bytes 0..27)
//   [directory: dir_slots * 32 B]
//     each slot:
//       0..7    fixed64 id          (0 = empty slot)
//       8..15   fixed64 offset      (relative to data area)
//       16..23  fixed64 size
//       24..27  fixed32 kind
//       28..31  fixed32 state       (1 = live, else free)
//   [data area: capacity bytes]
//
// A slot is claimed by writing all fields then persisting state=kLive last;
// an interrupted allocation leaves state != kLive and is garbage-collected
// by the free-map rebuild at open.

namespace {
constexpr char kMagic[8] = {'P', 'M', 'B', 'L', 'A', 'D', 'E', '1'};
constexpr uint64_t kHeaderSize = 64;
constexpr uint64_t kSlotSize = 32;
constexpr uint32_t kStateLive = 1;
constexpr uint64_t kAlign = 64;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

uint32_t DirSlotsForCapacity(uint64_t capacity) {
  // One slot per 64 KiB of capacity, clamped to [1024, 1M] slots.
  uint64_t slots = capacity / (64 * 1024);
  if (slots < 1024) slots = 1024;
  if (slots > (1u << 20)) slots = 1u << 20;
  return static_cast<uint32_t>(slots);
}
}  // namespace

Status PmPool::Open(const std::string& path, const PmPoolOptions& options,
                    std::unique_ptr<PmPool>* pool) {
  std::unique_ptr<PmPool> p(new PmPool());
  PMBLADE_RETURN_IF_ERROR(p->Init(path, options));
  *pool = std::move(p);
  return Status::OK();
}

Status PmPool::Init(const std::string& path, const PmPoolOptions& options) {
  path_ = path;
  latency_ = options.latency;
  clock_ = options.clock != nullptr ? options.clock : SystemClock();
  sync_on_persist_ = options.sync_on_persist;
  crash_sim_ = options.crash_sim;
  capacity_ = AlignUp(options.capacity, kAlign);
  dir_slots_ = DirSlotsForCapacity(capacity_);
  data_start_ = AlignUp(kHeaderSize + uint64_t{dir_slots_} * kSlotSize, 4096);
  mapped_size_ = data_start_ + capacity_;

  bool existed = ::access(path.c_str(), F_OK) == 0;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IOError("pm pool open " + path + ": " + strerror(errno));
  }

  if (existed) {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError("pm pool stat: " + std::string(strerror(errno)));
    }
    if (st.st_size == 0) {
      existed = false;  // empty file: treat as fresh
    }
  }

  if (!existed) {
    if (::ftruncate(fd_, static_cast<off_t>(mapped_size_)) != 0) {
      return Status::IOError("pm pool truncate: " +
                             std::string(strerror(errno)));
    }
  }

  // crash_sim: MAP_PRIVATE makes every store volatile — only Persist()
  // copies bytes through to the file, exactly like a CPU cache in front of
  // real PM that loses everything not explicitly flushed.
  void* addr = ::mmap(nullptr, mapped_size_, PROT_READ | PROT_WRITE,
                      crash_sim_ ? MAP_PRIVATE : MAP_SHARED, fd_, 0);
  if (addr == MAP_FAILED) {
    return Status::IOError("pm pool mmap: " + std::string(strerror(errno)));
  }
  base_ = static_cast<char*>(addr);

  if (!existed) {
    // Format a fresh pool.
    memcpy(base_, kMagic, 8);
    EncodeFixed64(base_ + 8, capacity_);
    EncodeFixed32(base_ + 16, dir_slots_);
    EncodeFixed64(base_ + 20, next_id_);
    EncodeFixed32(base_ + 28, crc32c::Value(base_, 28));
    memset(base_ + kHeaderSize, 0, dir_slots_ * kSlotSize);
    Persist(base_, data_start_);
  } else {
    if (memcmp(base_, kMagic, 8) != 0) {
      return Status::Corruption("pm pool: bad magic in " + path);
    }
    uint64_t disk_capacity = DecodeFixed64(base_ + 8);
    uint32_t disk_slots = DecodeFixed32(base_ + 16);
    if (crc32c::Value(base_, 28) != DecodeFixed32(base_ + 28)) {
      return Status::Corruption("pm pool: header crc mismatch");
    }
    if (disk_capacity != capacity_ || disk_slots != dir_slots_) {
      return Status::InvalidArgument(
          "pm pool: capacity mismatch with existing pool");
    }
    next_id_ = DecodeFixed64(base_ + 20);
  }

  RebuildFreeMap();
  return Status::OK();
}

PmPool::~PmPool() {
  if (base_ != nullptr) {
    if (!dead_.load()) {
      // Persist the id high-water mark so recovered pools keep ids unique.
      EncodeFixed64(base_ + 20, next_id_);
      EncodeFixed32(base_ + 28, crc32c::Value(base_, 28));
      if (crash_sim_) {
        Persist(base_ + 16, 16);  // covers bytes 16..32 (next_id + crc)
      } else {
        ::msync(base_, data_start_, MS_SYNC);
      }
    }
    // After a simulated crash nothing more may reach the file: the process
    // is conceptually gone, and the mapping is private anyway.
    ::munmap(base_, mapped_size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

char* PmPool::DirEntry(uint32_t slot) const {
  return base_ + kHeaderSize + uint64_t{slot} * kSlotSize;
}

void PmPool::RebuildFreeMap() {
  std::lock_guard<std::mutex> lock(mu_);
  objects_.clear();
  slot_of_id_.clear();
  free_extents_.clear();

  // Collect live objects from the directory.
  for (uint32_t slot = 0; slot < dir_slots_; ++slot) {
    const char* e = DirEntry(slot);
    uint64_t id = DecodeFixed64(e);
    if (id == 0) continue;
    uint32_t state = DecodeFixed32(e + 28);
    if (state != kStateLive) continue;
    ObjectInfo info;
    info.id = id;
    info.offset = DecodeFixed64(e + 8);
    info.size = DecodeFixed64(e + 16);
    info.kind = DecodeFixed32(e + 24);
    objects_[id] = info;
    slot_of_id_[id] = slot;
    if (id >= next_id_) next_id_ = id + 1;
  }

  // Free space = complement of live extents, coalesced.
  uint64_t cursor = 0;
  std::map<uint64_t, uint64_t> live;  // offset -> aligned size
  for (const auto& [id, info] : objects_) {
    live[info.offset] = AlignUp(info.size, kAlign);
  }
  for (const auto& [off, size] : live) {
    if (off > cursor) free_extents_[cursor] = off - cursor;
    cursor = off + size;
  }
  if (cursor < capacity_) free_extents_[cursor] = capacity_ - cursor;
}

Status PmPool::AllocateExtent(uint64_t size, uint64_t* offset) {
  // First fit. mu_ held by caller.
  for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
    if (it->second >= size) {
      *offset = it->first;
      uint64_t remaining = it->second - size;
      uint64_t new_off = it->first + size;
      free_extents_.erase(it);
      if (remaining > 0) free_extents_[new_off] = remaining;
      return Status::OK();
    }
  }
  return Status::Busy("pm pool: out of space");
}

void PmPool::FreeExtent(uint64_t offset, uint64_t size) {
  // mu_ held by caller. Insert and coalesce with neighbors.
  auto [it, inserted] = free_extents_.emplace(offset, size);
  (void)inserted;
  // Merge with next.
  auto next = std::next(it);
  if (next != free_extents_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_extents_.erase(next);
  }
  // Merge with previous.
  if (it != free_extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_extents_.erase(it);
    }
  }
}

Status PmPool::Allocate(uint64_t size, uint32_t kind, ObjectInfo* info,
                        char** data) {
  return Allocate(size, kind, Slice(), info, data);
}

Status PmPool::Allocate(uint64_t size, uint32_t kind, const Slice& prefix,
                        ObjectInfo* info, char** data) {
  if (size == 0) return Status::InvalidArgument("pm pool: zero-size object");
  if (prefix.size() > size) {
    return Status::InvalidArgument("pm pool: prefix larger than object");
  }
  if (dead_.load(std::memory_order_acquire)) {
    return Status::IOError("pm pool: simulated crash");
  }
  uint64_t aligned = AlignUp(size, kAlign);

  std::lock_guard<std::mutex> lock(mu_);
  uint64_t offset = 0;
  PMBLADE_RETURN_IF_ERROR(AllocateExtent(aligned, &offset));

  // Find a free directory slot.
  uint32_t slot = dir_slots_;
  for (uint32_t i = 0; i < dir_slots_; ++i) {
    const char* e = DirEntry(i);
    if (DecodeFixed64(e) == 0 || DecodeFixed32(e + 28) != kStateLive) {
      slot = i;
      break;
    }
  }
  if (slot == dir_slots_) {
    FreeExtent(offset, aligned);
    return Status::Busy("pm pool: directory full");
  }

  if (!prefix.empty()) {
    char* dst = base_ + data_start_ + offset;
    memcpy(dst, prefix.data(), prefix.size());
    Persist(dst, prefix.size());
  }

  uint64_t id = next_id_++;
  char* e = DirEntry(slot);
  EncodeFixed64(e, id);
  EncodeFixed64(e + 8, offset);
  EncodeFixed64(e + 16, size);
  EncodeFixed32(e + 24, kind);
  Persist(e, 28);
  PMBLADE_SYNC_POINT("PmPool::Allocate:BeforeCommit");
  EncodeFixed32(e + 28, kStateLive);  // commit point
  Persist(e + 28, 4);

  info->id = id;
  info->offset = offset;
  info->size = size;
  info->kind = kind;
  objects_[id] = *info;
  slot_of_id_[id] = slot;
  *data = base_ + data_start_ + offset;
  return Status::OK();
}

Status PmPool::Free(uint64_t id) {
  if (dead_.load(std::memory_order_acquire)) {
    return Status::IOError("pm pool: simulated crash");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("pm pool: no such object");
  }
  uint32_t slot = slot_of_id_[id];
  char* e = DirEntry(slot);
  EncodeFixed32(e + 28, 0);  // not live
  Persist(e + 28, 4);
  EncodeFixed64(e, 0);       // release the slot
  Persist(e, 8);

  FreeExtent(it->second.offset, AlignUp(it->second.size, kAlign));
  slot_of_id_.erase(id);
  objects_.erase(it);
  return Status::OK();
}

void PmPool::ReleasePages(const char* addr, size_t len) {
  const uintptr_t begin =
      (reinterpret_cast<uintptr_t>(addr) + 4095) & ~uintptr_t{4095};
  const uintptr_t end = (reinterpret_cast<uintptr_t>(addr) + len) &
                        ~uintptr_t{4095};
  if (end > begin) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
}

char* PmPool::DataFor(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return nullptr;
  return base_ + data_start_ + it->second.offset;
}

std::vector<PmPool::ObjectInfo> PmPool::ListObjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObjectInfo> out;
  out.reserve(objects_.size());
  for (const auto& [id, info] : objects_) out.push_back(info);
  return out;
}

void PmPool::Persist(const char* addr, size_t len) {
  stats_.AddPersist();
  if (latency_.inject_latency) {
    clock_->SleepForNanos(latency_.persist_nanos);
  }
  if (crash_sim_) {
    if (dead_.load(std::memory_order_acquire)) return;  // post-crash: lost
    // Write the covered range through to the file at the device's persist
    // granularity: widen to 8-byte alignment on both ends.
    uint64_t start = static_cast<uint64_t>(addr - base_) & ~uint64_t{7};
    uint64_t end = (static_cast<uint64_t>(addr - base_) + len + 7) &
                   ~uint64_t{7};
    if (end > mapped_size_) end = mapped_size_;
    if (start >= end) return;
    ::pwrite(fd_, base_ + start, end - start, static_cast<off_t>(start));
    return;
  }
  if (sync_on_persist_) {
    // msync requires page-aligned addresses.
    uintptr_t start = reinterpret_cast<uintptr_t>(addr) & ~uintptr_t{4095};
    uintptr_t end = reinterpret_cast<uintptr_t>(addr) + len;
    ::msync(reinterpret_cast<void*>(start), end - start, MS_SYNC);
  }
}

void PmPool::SimulateCrash(uint64_t seed, double unpersisted_survival_prob) {
  if (!crash_sim_) return;
  // Deliberately lock-free: setting dead_ turns every later Persist() into a
  // no-op, and crash callbacks may fire from inside pool operations that
  // already hold mu_ (e.g. the Allocate commit point). A store or persist
  // racing the scan is indistinguishable from one racing a real power cut.
  if (dead_.exchange(true)) return;

  // The file holds the persisted image; the private mapping holds every
  // store. For each 8-byte word that differs, the store was never flushed:
  // it survives the power cut only if its cache line happened to be evicted
  // beforehand.
  Random rnd(seed);
  std::vector<char> durable(1 << 16);
  for (uint64_t off = 0; off < mapped_size_; off += durable.size()) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(durable.size(),
                                               mapped_size_ - off));
    ssize_t got = ::pread(fd_, durable.data(), n, static_cast<off_t>(off));
    if (got < 0) got = 0;
    if (static_cast<size_t>(got) < n) {
      memset(durable.data() + got, 0, n - got);
    }
    if (memcmp(durable.data(), base_ + off, n) == 0) continue;
    for (size_t w = 0; w + 8 <= n; w += 8) {
      if (memcmp(durable.data() + w, base_ + off + w, 8) == 0) continue;
      if (rnd.NextDouble() < unpersisted_survival_prob) {
        ::pwrite(fd_, base_ + off + w, 8, static_cast<off_t>(off + w));
      }
    }
  }
}

bool PmPool::crash_sim_dead() const {
  return dead_.load(std::memory_order_acquire);
}

void PmPool::InjectRead(size_t bytes, uint64_t accesses) {
  stats_.AddRead(bytes, accesses);
  if (!latency_.inject_latency) return;
  uint64_t nanos =
      accesses * latency_.read_access_nanos +
      static_cast<uint64_t>(latency_.read_nanos_per_byte * bytes);
  clock_->SleepForNanos(nanos);
}

void PmPool::InjectWrite(size_t bytes) {
  stats_.AddWrite(bytes);
  if (!latency_.inject_latency) return;
  uint64_t nanos =
      static_cast<uint64_t>(latency_.write_nanos_per_byte * bytes);
  clock_->SleepForNanos(nanos);
}

uint64_t PmPool::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t used = 0;
  for (const auto& [id, info] : objects_) used += AlignUp(info.size, kAlign);
  return used;
}

uint64_t PmPool::FreeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t free_bytes = 0;
  for (const auto& [off, size] : free_extents_) free_bytes += size;
  return free_bytes;
}

void PmPool::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterGaugeCallback("pmblade.pm.capacity_bytes", [this] {
    return static_cast<double>(capacity());
  });
  registry->RegisterGaugeCallback("pmblade.pm.used_bytes", [this] {
    return static_cast<double>(UsedBytes());
  });
  registry->RegisterGaugeCallback("pmblade.pm.free_bytes", [this] {
    return static_cast<double>(FreeBytes());
  });
  registry->RegisterGaugeCallback("pmblade.pm.largest_free_extent", [this] {
    return static_cast<double>(LargestFreeExtent());
  });
  registry->RegisterCounterCallback("pmblade.pm.bytes_read",
                                    [this] { return stats_.bytes_read(); });
  registry->RegisterCounterCallback("pmblade.pm.bytes_written", [this] {
    return stats_.bytes_written();
  });
  registry->RegisterCounterCallback("pmblade.pm.read_accesses", [this] {
    return stats_.read_accesses();
  });
  registry->RegisterCounterCallback("pmblade.pm.persists",
                                    [this] { return stats_.persists(); });
}

uint64_t PmPool::LargestFreeExtent() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t largest = 0;
  for (const auto& [off, size] : free_extents_) {
    if (size > largest) largest = size;
  }
  return largest;
}

}  // namespace pmblade
