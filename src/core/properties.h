// Engine properties are renderings of the engine's metrics registry: the
// registry is the only code that computes their values.
//
// A numeric property (DB::GetProperty(uint64_t*)) is a registry metric read
// by its dotted name, e.g. "pmblade.lsm.l0_bytes". Exactly four hyphenated
// names from before the dotted scheme stay, as the aliases in
// PropertyAliases(): the end-to-end benchmark (perfbench/src/main.cc) polls
// them to detect a quiet engine and to measure space amplification, and
// that benchmark's source changes only together with the benchmark itself.
// Nothing else reads a hyphenated name.
//
// The statistics string properties ("pmblade.stats.json",
// "pmblade.stats.prometheus", "pmblade.stats") have one renderer over a
// registry plus trace events, shared by the single and the sharded engine.

#ifndef PMBLADE_CORE_PROPERTIES_H_
#define PMBLADE_CORE_PROPERTIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/metrics.h"

namespace pmblade {

struct PropertyAlias {
  const char* property;  // the hyphenated name
  const char* metric;    // the registry metric, e.g. "pmblade.pm.used_bytes"
};

/// The hyphenated numeric properties, each with the registry metric it
/// reads.
const std::vector<PropertyAlias>& PropertyAliases();

/// Reads `property` from `registry`: the metric it aliases, or the metric
/// of that name. Negative gauges read as 0, fractional ones truncate, and a
/// histogram reads as its count. Returns false for an unknown name.
bool ReadNumericProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t* value);

/// Renders a statistics string property of `registry`:
///   "pmblade.stats.json"       — a snapshot taken at `now_nanos` plus
///                                `events()` as one JSON document,
///   "pmblade.stats.prometheus" — the snapshot in Prometheus text format,
///   "pmblade.stats"            — StatsSummary(registry).
/// `events` runs only for the JSON document. False for any other name.
bool RenderStatsProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t now_nanos,
                         const std::function<std::vector<obs::Event>()>& events,
                         std::string* value);

}  // namespace pmblade

#endif  // PMBLADE_CORE_PROPERTIES_H_
