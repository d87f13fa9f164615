// Reporters for the bench binaries: paper-style tables with aligned
// columns on stdout, the db_bench-style per-benchmark line, and the JSON
// rows the BENCH_*.json files and tool summaries are written as.

#ifndef PMBLADE_BENCHUTIL_REPORTER_H_
#define PMBLADE_BENCHUTIL_REPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace pmblade {
namespace bench {

/// Accumulates rows and prints an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  /// Formats a double with `precision` decimals.
  static std::string Fmt(double value, int precision = 2);
  static std::string FmtBytes(uint64_t bytes);
  static std::string FmtNanos(double nanos);

  /// Prints "== title ==", the header, a rule, and the rows.
  void Print(const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints "<name> : <us/op>; <ops/sec>; p99 <us> (<ops> ops)".
void ReportOps(const std::string& name, uint64_t ops, uint64_t nanos,
               const Histogram& latency);

/// One JSON object whose keys keep the order they were added in. A number
/// carries the precision its call names, so a file's layout depends on its
/// schema and never on its values.
class JsonObject {
 public:
  template <typename T>
  JsonObject& Int(const std::string& key, T value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Num(const std::string& key, double value, int precision) {
    return Raw(key, TablePrinter::Fmt(value, precision));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.ToString());
  }
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Rows(const std::string& key, const std::vector<JsonObject>& rows);
  /// Appends `other`'s keys after this object's.
  JsonObject& Append(const JsonObject& other);

  /// The object on one line.
  std::string ToString() const { return "{" + fields_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& json);

  std::string fields_;  // `"key": value` pairs joined by ", "
};

/// `rows` as a JSON array, one object per line.
std::string JsonRows(const std::vector<JsonObject>& rows);

/// Writes `text` to `path` and prints "wrote <path>". An empty path writes
/// nothing; returns false when the file cannot be written.
bool WriteTextFile(const std::string& path, const std::string& text);

}  // namespace bench
}  // namespace pmblade

#endif  // PMBLADE_BENCHUTIL_REPORTER_H_
