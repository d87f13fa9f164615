// L0Table: the uniform interface over level-0 table implementations.
//
// PM-Blade's level-0 is a set of tables flushed from the memtable. The
// engine supports several physical layouts behind this interface so the
// paper's configurations are all expressible:
//   * PmTable           — the paper's three-layer prefix-compressed layout
//   * ArrayTable        — uncompressed data+metadata arrays (MatrixKV-style)
//   * ArraySnappyTable  — per-pair LZ compression       (Fig. 6 baseline)
//   * ArraySnappyGroupTable — per-8-pair LZ compression (Fig. 6 baseline)
//   * SsdL0Table        — an SSTable on the simulated SSD (PMBlade-SSD)
//
// Entries are internal keys (user_key ⊕ seq ⊕ type) in ascending internal
// order; tables are immutable once built.
//
// Every table can carry a bloom filter over its user keys, consulted by
// L0TableGet before any PM scan or SSD block read. PM layouts hold a
// DRAM-resident whole-table filter (built at flush/compaction time by the
// L0TableFactory, rebuilt from the table's keys on recovery — the PM media
// format is unchanged); SsdL0Table probes the SSTable's own per-block
// filter inside its point lookup, on the same index seek that finds the
// data block. One BloomFilterPolicy implementation serves both.

#ifndef PMBLADE_PMTABLE_L0_TABLE_H_
#define PMBLADE_PMTABLE_L0_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "memtable/internal_key.h"
#include "util/iterator.h"
#include "util/status.h"

namespace pmblade {

class BloomFilterPolicy;
class FilterCollector;
class PmPool;

/// Object kinds registered in the PM pool directory. Kind 5 is
/// kPmLogObject, a write-ahead log segment (pm/pm_log.h).
enum PmObjectKind : uint32_t {
  kPmTableObject = 1,
  kArrayTableObject = 2,
  kSnappyTableObject = 3,
  kSnappyGroupTableObject = 4,
};

class L0Table {
 public:
  virtual ~L0Table() = default;

  /// Iterator over (internal key, value); caller owns it. The iterator must
  /// keep the table alive independently of the caller's reference.
  virtual Iterator* NewIterator() const = 0;

  virtual uint64_t num_entries() const = 0;
  /// Storage footprint in bytes (PM object size or SSD file size).
  virtual uint64_t size_bytes() const = 0;

  /// Smallest/largest internal keys (cached at open; valid for the table's
  /// lifetime). Empty table => empty slices.
  virtual Slice smallest() const = 0;
  virtual Slice largest() const = 0;

  /// Monotonic creation id; among overlapping *unsorted* tables, larger id
  /// means newer data and must be consulted first.
  virtual uint64_t id() const = 0;

  /// How a point lookup ended.
  enum class GetResult {
    kFiltered,  // the table's own filter ruled the key out
    kAbsent,    // no version of the key at or below the snapshot
    kValue,     // newest visible version is a value, copied to *value
    kDeletion,  // newest visible version is a tombstone
  };

  /// Point lookup of `lkey`'s user key at its snapshot: the first entry at
  /// or after lkey.internal_key(), if it has the same user key. L0TableGet
  /// calls it after the key-range and DRAM-filter checks. The default seeks
  /// a NewIterator(); PmTable walks one group's entry headers without an
  /// iterator, and SsdL0Table folds its per-block filter probe into the
  /// index seek (so only it answers kFiltered). *value is written only on
  /// kValue.
  virtual Status Get(const InternalKeyComparator& icmp, const LookupKey& lkey,
                     std::string* value, GetResult* result) const;

  /// Marks the underlying storage (PM object or SSD file) for release.
  /// Called once, when the table leaves the version. The actual free is
  /// deferred to the destructor, i.e. until the last L0TableRef drops, so
  /// concurrent readers and iterators still holding a ref never observe
  /// freed storage.
  virtual Status Destroy() = 0;

  // ---- bloom filter (read-path acceleration) ----

  /// Whether a filter is attached (the DRAM one, or for SSTables the one
  /// Get probes); when false, probes are not counted as bloom checks.
  virtual bool HasFilter() const { return !filter_.empty(); }

  /// Probes the DRAM-resident filter with `lkey`'s user key. May return
  /// false positives, never false negatives for keys in the table. Tables
  /// without a DRAM filter (SSTables included) return true.
  bool MayContain(const LookupKey& lkey) const;

  /// Attaches a DRAM-resident whole-table filter produced by
  /// `policy->CreateFilter` over the table's user keys. Must be called
  /// before the table is published to readers (build or recovery time);
  /// the filter is immutable afterwards.
  void InstallFilter(const BloomFilterPolicy* policy, std::string filter);

  /// Builds and installs the whole-table filter from the table's keys
  /// (CollectKeys). Recovery path for PM layouts, whose on-media format
  /// carries no filter section. No-op when `policy` is nullptr.
  void BuildFilter(const BloomFilterPolicy* policy);

  /// DRAM bytes held by the attached filter (0 for SSTables, whose filter
  /// lives in the TableReader).
  size_t filter_bytes() const { return filter_.size(); }

  /// DRAM bytes the table holds to serve reads: the filter, plus any search
  /// structure a layout keeps beside it (PmTable's group slots).
  virtual size_t dram_bytes() const { return filter_bytes(); }

 protected:
  /// Feeds every entry's internal key, in order, to `collector`; false when
  /// the table cannot be read. The default walks NewIterator(), values
  /// included; PmTable walks keys only.
  virtual bool CollectKeys(FilterCollector* collector) const;

  const BloomFilterPolicy* filter_policy_ = nullptr;
  std::string filter_;  // immutable once the table is published
};

using L0TableRef = std::shared_ptr<L0Table>;

/// Gathers the whole-table filter of a PM layout as its keys stream past in
/// internal order, at build (the entries a builder is fed) and at open
/// (CollectKeys). It keeps the 32-bit bloom hash of each distinct user key;
/// a key's versions are adjacent, so one comparison against the last user
/// key dedupes. The same keys give the same bits either way.
class FilterCollector {
 public:
  /// nullptr `policy` collects nothing.
  explicit FilterCollector(const BloomFilterPolicy* policy)
      : policy_(policy) {}

  void Observe(const Slice& internal_key);
  /// Installs the filter on `table` unless no key was observed.
  void InstallOn(L0Table* table);

 private:
  const BloomFilterPolicy* policy_;
  std::string last_user_key_;
  std::vector<uint32_t> hashes_;
};

/// Read-path probe accounting, aggregated per Get by the engine and fed to
/// the pmblade.bloom.* counters and the memory arbiter.
struct ReadProbeStats {
  uint64_t tables_probed = 0;         // passed the key-range rejection
  uint64_t bloom_checks = 0;          // tables that had a filter to consult
  uint64_t bloom_negatives = 0;       // probes skipped by the filter
  uint64_t bloom_false_positives = 0; // filter passed but the key was absent
};

/// Lands a PM-layout table whose image is `parts` concatenated as a new
/// pool object of `kind`: one allocation of the exact size, one copy of
/// each part into it, then one InjectWrite and one Persist over the whole
/// object. *id names the object for the layout's Open.
Status LandTableObject(PmPool* pool, uint32_t kind,
                       std::initializer_list<Slice> parts, uint64_t* id);

/// Point lookup over any L0Table. Searches for `lkey`'s user key at its
/// snapshot; on a value hit fills *value and returns found=true/OK; on a
/// tombstone returns found=true and NotFound status via *result_status.
/// Rejects on the cached key range, then on the DRAM filter, then calls the
/// table's virtual Get (which may consult a filter of its own); `probe`
/// (optional) accumulates the filter accounting, identical whichever of the
/// two filters answered.
Status L0TableGet(const L0Table& table, const InternalKeyComparator& icmp,
                  const LookupKey& lkey, std::string* value, bool* found,
                  Status* result_status, ReadProbeStats* probe = nullptr);

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_L0_TABLE_H_
