// KvEngine: the minimal engine-agnostic facade the benchmark harness drives,
// implemented by pmblade::DB and by the comparison engines (the conventional
// leveled LSM and the MatrixKV-style store).

#ifndef PMBLADE_CORE_KV_ENGINE_H_
#define PMBLADE_CORE_KV_ENGINE_H_

#include <string>

#include "util/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace pmblade {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class KvEngine {
 public:
  virtual ~KvEngine() = default;

  virtual Status Put(const Slice& key, const Slice& value) = 0;
  virtual Status Delete(const Slice& key) = 0;
  virtual Status Get(const Slice& key, std::string* value) = 0;

  /// Iterator over live (user key, value) pairs, ascending.
  virtual Iterator* NewScanIterator() = 0;

  /// Forces all buffered writes down to the storage layers (memtable flush).
  virtual Status Flush() = 0;

  /// The engine-wide metrics registry: every statistic the engine keeps,
  /// under the same names in every engine (e.g. "pmblade.write.user_bytes",
  /// "pmblade.reads.ssd_l1"). External subsystems (the RESP server)
  /// register their own counters/gauges/histograms here so one snapshot
  /// covers the whole process. Never nullptr after Open.
  virtual obs::MetricsRegistry* metrics_registry() = 0;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_KV_ENGINE_H_
