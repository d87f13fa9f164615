// PmPool: the simulated persistent-memory device.
//
// A PmPool is an mmap-backed arena with a persistent object directory, the
// substrate for PM-Blade's level-0. It provides:
//   * byte-addressable allocation of named, typed objects (PM tables),
//   * a Persist() primitive standing in for clwb+sfence,
//   * crash-consistent object registration (an object becomes visible only
//     once its directory entry is persisted in state kLive),
//   * recovery by directory scan,
//   * a latency model calibrated to Optane DCPMM behaviour (reads ~3x DRAM
//     latency, write bandwidth ~1/3 of read — Yang et al. [10]), and
//   * traffic statistics for write-amplification accounting.
//
// Free space lives in a DRAM-side extent map rebuilt from the directory at
// open; only object liveness is persistent state.

#ifndef PMBLADE_PM_PM_POOL_H_
#define PMBLADE_PM_PM_POOL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pm/pm_stats.h"
#include "util/clock.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Timing model for the simulated PM device. Defaults follow the published
/// Optane DCPMM characteristics: ~300 ns random read (vs ~100 ns DRAM),
/// ~6 GB/s sequential read and ~2 GB/s write bandwidth per DIMM.
struct PmLatencyOptions {
  uint64_t read_access_nanos = 300;     // per random access (pointer chase)
  double read_nanos_per_byte = 0.15;    // sequential read bandwidth
  double write_nanos_per_byte = 1.0;    // write bandwidth (~1 GB/s/DIMM)
  uint64_t persist_nanos = 500;         // clwb + sfence round trip
  bool inject_latency = true;

  /// Device profiles. The paper's future work proposes applying PM-Blade's
  /// approach to other high-capacity memory tiers (CXL expanded memory);
  /// these presets let every experiment re-run under a different tier.
  static PmLatencyOptions Optane() { return PmLatencyOptions{}; }
  static PmLatencyOptions CxlMemory() {
    // CXL-attached DRAM: ~2-3x DRAM latency (lower than Optane), DRAM-class
    // bandwidth over the link, no persist barrier cost beyond a fence.
    PmLatencyOptions opts;
    opts.read_access_nanos = 200;
    opts.read_nanos_per_byte = 0.05;
    opts.write_nanos_per_byte = 0.1;
    opts.persist_nanos = 250;
    return opts;
  }
  static PmLatencyOptions LocalDram() {
    PmLatencyOptions opts;
    opts.read_access_nanos = 90;
    opts.read_nanos_per_byte = 0.02;
    opts.write_nanos_per_byte = 0.04;
    opts.persist_nanos = 100;
    return opts;
  }
};

struct PmPoolOptions {
  uint64_t capacity = 256ull << 20;  // 256 MiB default pool
  PmLatencyOptions latency;
  Clock* clock = nullptr;            // defaults to SystemClock()
  /// When false, Persist() skips msync (faster; the mapping is still
  /// eventually durable via the kernel). Tests exercising recovery leave
  /// this on.
  bool sync_on_persist = false;
  /// Crash-simulation mode: the pool maps its file MAP_PRIVATE, so ordinary
  /// stores NEVER reach the backing file — only Persist() copies the covered
  /// (8-byte-aligned) range through, modeling real PM where data is durable
  /// only after an explicit clwb+sfence of each cache line. Combined with
  /// SimulateCrash() this falsifies any code path that stores to PM and
  /// skips the persist barrier.
  bool crash_sim = false;
};

class PmPool {
 public:
  /// Metadata describing a live object in the pool.
  struct ObjectInfo {
    uint64_t id = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t kind = 0;
  };

  /// Opens (creating if absent) a pool backed by `path`. An existing pool's
  /// capacity must match `options.capacity`.
  static Status Open(const std::string& path, const PmPoolOptions& options,
                     std::unique_ptr<PmPool>* pool);

  ~PmPool();
  PmPool(const PmPool&) = delete;
  PmPool& operator=(const PmPool&) = delete;

  /// Allocates a `size`-byte object of type `kind`. On success the object is
  /// registered (crash-visible) and `*data` points at its bytes. The caller
  /// fills the bytes and calls Persist on them.
  Status Allocate(uint64_t size, uint32_t kind, ObjectInfo* info, char** data);

  /// Allocate, but first copies `prefix` to the start of the object and
  /// persists it, so the object never becomes crash-visible with bytes left
  /// over from a freed object in that range.
  Status Allocate(uint64_t size, uint32_t kind, const Slice& prefix,
                  ObjectInfo* info, char** data);

  /// Frees a live object; its space returns to the extent map.
  Status Free(uint64_t id);

  /// Drops the pages wholly inside [addr, addr+len) from the process's
  /// resident memory. Their bytes do not change: the next access reads them
  /// back from the pool file, so in crash_sim mode only persisted bytes may
  /// be released. Meant for space just freed, so the resident footprint
  /// follows the live objects.
  void ReleasePages(const char* addr, size_t len);

  /// Pointer to a live object's bytes (nullptr if unknown id).
  char* DataFor(uint64_t id) const;

  /// All live objects, ascending id. Recovery entry point.
  std::vector<ObjectInfo> ListObjects() const;

  /// Persistence barrier for [addr, addr+len): injects the modeled persist
  /// cost and (optionally) msyncs the covering pages. In crash_sim mode this
  /// is the ONLY operation that makes bytes durable: it writes the covered
  /// range, widened to 8-byte alignment, through to the backing file.
  void Persist(const char* addr, size_t len);

  // ---- crash simulation (crash_sim mode only) ----

  /// Simulates power loss with persist-granularity semantics: every 8-byte
  /// word that was stored but never Persist()ed either survives (its cache
  /// line happened to be evicted before the cut) with probability
  /// `unpersisted_survival_prob`, or reverts to the last persisted value.
  /// Explicitly persisted words always survive. Afterwards the pool is dead:
  /// Allocate/Free fail and Persist is a no-op, like syscalls in a process
  /// that no longer exists. Reopen the path to get the post-crash image.
  /// No-op outside crash_sim mode.
  void SimulateCrash(uint64_t seed, double unpersisted_survival_prob = 0.5);

  /// True once SimulateCrash has fired.
  bool crash_sim_dead() const;

  // ---- latency hooks (called by PM table readers/writers) ----

  /// Models `accesses` dependent random reads touching `bytes` total.
  void InjectRead(size_t bytes, uint64_t accesses = 1);
  /// Models a streaming write of `bytes` (accounting only; allocation writes
  /// go through memcpy by the caller).
  void InjectWrite(size_t bytes);

  uint64_t capacity() const { return capacity_; }
  uint64_t UsedBytes() const;
  uint64_t FreeBytes() const;
  /// Largest single allocation currently possible (contiguity limit).
  uint64_t LargestFreeExtent() const;

  PmStats& stats() { return stats_; }

  /// Registers "pmblade.pm.*" pull metrics: capacity/used/free gauges plus
  /// the PmStats traffic counters. The pool must outlive the registry's
  /// snapshots.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  const PmLatencyOptions& latency_options() const { return latency_; }
  /// Enable/disable latency injection at runtime (benches use this to make
  /// load phases fast and measurement phases accurate).
  void set_inject_latency(bool inject) { latency_.inject_latency = inject; }

 private:
  PmPool() = default;

  Status Init(const std::string& path, const PmPoolOptions& options);
  void RebuildFreeMap();
  Status AllocateExtent(uint64_t size, uint64_t* offset);
  void FreeExtent(uint64_t offset, uint64_t size);

  // Directory entry manipulation (slot layout is in pm_pool.cc).
  char* DirEntry(uint32_t slot) const;

  std::string path_;
  int fd_ = -1;
  char* base_ = nullptr;          // mmap base
  uint64_t mapped_size_ = 0;
  uint64_t capacity_ = 0;         // data area capacity
  uint64_t data_start_ = 0;       // offset of data area in the mapping
  uint32_t dir_slots_ = 0;

  PmLatencyOptions latency_;
  Clock* clock_ = nullptr;
  bool sync_on_persist_ = false;
  bool crash_sim_ = false;
  std::atomic<bool> dead_{false};  // set by SimulateCrash

  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> free_extents_;       // offset -> size
  std::map<uint64_t, ObjectInfo> objects_;          // id -> info
  std::map<uint64_t, uint32_t> slot_of_id_;         // id -> directory slot
  uint64_t next_id_ = 1;
  PmStats stats_;
};

}  // namespace pmblade

#endif  // PMBLADE_PM_PM_POOL_H_
