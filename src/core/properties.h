// Numeric engine properties (DB::GetProperty(uint64_t*)) are reads of the
// engine's metrics registry: the registry is the only code that computes
// their values. The hyphenated property names predate the registry's dotted
// scheme and stay accepted because tools and benchmarks outside the engine
// read them; the alias table here is the one place the two schemes meet.
// Any registry metric name also resolves directly as a property.

#ifndef PMBLADE_CORE_PROPERTIES_H_
#define PMBLADE_CORE_PROPERTIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pmblade {

struct PropertyAlias {
  const char* property;  // e.g. "pmblade.wal-syncs"
  const char* metric;    // e.g. "pmblade.wal.syncs"
};

/// Every hyphenated numeric property with the registry metric it reads.
const std::vector<PropertyAlias>& PropertyAliases();

/// Reads `property` from `registry`: the metric it aliases, or the metric
/// of that name. Negative gauges read as 0, fractional ones truncate, and a
/// histogram reads as its count. Returns false for an unknown name.
bool ReadNumericProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t* value);

}  // namespace pmblade

#endif  // PMBLADE_CORE_PROPERTIES_H_
