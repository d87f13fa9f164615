#include "core/properties.h"

#include <algorithm>

#include "core/statistics.h"
#include "obs/exporter.h"

namespace pmblade {

const std::vector<PropertyAlias>& PropertyAliases() {
  // The names the end-to-end benchmark polls; every other numeric property
  // is its registry name.
  static const std::vector<PropertyAlias> kAliases = {
      {"pmblade.compaction-queue-depth", "pmblade.compaction.queue_depth"},
      {"pmblade.compaction-active", "pmblade.compaction.active"},
      {"pmblade.pm-used-bytes", "pmblade.pm.used_bytes"},
      // The whole SSD run stack (every level), as is pmblade.lsm.l1_bytes.
      {"pmblade.ssd-bytes", "pmblade.lsm.l1_bytes"},
  };
  return kAliases;
}

bool ReadNumericProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t* value) {
  const std::vector<PropertyAlias>& aliases = PropertyAliases();
  auto alias = std::find_if(
      aliases.begin(), aliases.end(),
      [&property](const PropertyAlias& a) { return property == a.property; });
  obs::MetricSample sample;
  if (!registry.Read(alias != aliases.end() ? alias->metric : property,
                     &sample)) {
    return false;
  }
  // The cast truncates; NaN and negative gauges read as 0, and the clamp
  // keeps an out-of-range double from overflowing the conversion.
  *value = sample.value > 0
               ? static_cast<uint64_t>(std::min(sample.value, 0x1p63))
               : 0;
  return true;
}

bool RenderStatsProperty(const obs::MetricsRegistry& registry,
                         const std::string& property, uint64_t now_nanos,
                         const std::function<std::vector<obs::Event>()>& events,
                         std::string* value) {
  if (property == "pmblade.stats.json") {
    *value = obs::ExportJson(registry.Snapshot(now_nanos), events());
  } else if (property == "pmblade.stats.prometheus") {
    *value = obs::ExportPrometheus(registry.Snapshot(now_nanos));
  } else if (property == "pmblade.stats") {
    *value = StatsSummary(registry);
  } else {
    return false;
  }
  return true;
}

}  // namespace pmblade
