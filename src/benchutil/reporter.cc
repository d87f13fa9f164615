#include "benchutil/reporter.h"

#include <algorithm>
#include <cstdio>

namespace pmblade {
namespace bench {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Fmt(double value, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::FmtBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    snprintf(buf, sizeof(buf), "%.2f GiB", bytes / double(1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    snprintf(buf, sizeof(buf), "%.2f MiB", bytes / double(1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    snprintf(buf, sizeof(buf), "%.2f KiB", bytes / double(1ull << 10));
  } else {
    snprintf(buf, sizeof(buf), "%llu B",
             static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string TablePrinter::FmtNanos(double nanos) {
  char buf[64];
  if (nanos >= 1e9) {
    snprintf(buf, sizeof(buf), "%.2f s", nanos / 1e9);
  } else if (nanos >= 1e6) {
    snprintf(buf, sizeof(buf), "%.2f ms", nanos / 1e6);
  } else if (nanos >= 1e3) {
    snprintf(buf, sizeof(buf), "%.2f us", nanos / 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.0f ns", nanos);
  }
  return buf;
}

void TablePrinter::Print(const std::string& title) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  printf("\n== %s ==\n", title.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const char* cell = c < row.size() ? row[c].c_str() : "";
      printf("%-*s%s", static_cast<int>(widths[c]), cell,
             c + 1 < widths.size() ? "  " : "\n");
    }
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  for (size_t i = 0; i + 2 < total; ++i) putchar('-');
  putchar('\n');
  for (const auto& row : rows_) print_row(row);
  fflush(stdout);
}

void ReportOps(const std::string& name, uint64_t ops, uint64_t nanos,
               const Histogram& latency) {
  double micros_per_op = ops > 0 ? nanos / 1000.0 / ops : 0;
  double ops_per_sec = nanos > 0 ? ops * 1e9 / nanos : 0;
  printf("%-12s : %9.3f us/op; %10.0f ops/sec; p99 %9.3f us (%llu ops)\n",
         name.c_str(), micros_per_op, ops_per_sec,
         latency.Percentile(99) / 1000.0,
         static_cast<unsigned long long>(ops));
  fflush(stdout);
}

JsonObject& JsonObject::Str(const std::string& key,
                            const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return Raw(key, quoted + "\"");
}

JsonObject& JsonObject::Rows(const std::string& key,
                             const std::vector<JsonObject>& rows) {
  std::string array = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    array += (i == 0 ? "" : ", ") + rows[i].ToString();
  }
  return Raw(key, array + "]");
}

JsonObject& JsonObject::Append(const JsonObject& other) {
  if (!fields_.empty() && !other.fields_.empty()) fields_ += ", ";
  fields_ += other.fields_;
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  if (!fields_.empty()) fields_ += ", ";
  fields_ += "\"" + key + "\": " + json;
  return *this;
}

std::string JsonRows(const std::vector<JsonObject>& rows) {
  std::string json = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += "  " + rows[i].ToString() + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return json + "]\n";
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok = fputs(text.c_str(), out) >= 0;
  if (fclose(out) != 0 || !ok) return false;
  printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace pmblade
