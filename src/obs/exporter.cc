#include "obs/exporter.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace pmblade {
namespace obs {

namespace {

void AppendNumber(std::string* out, double value) {
  char buf[48];
  if (!std::isfinite(value)) {
    out->append("0");
  } else if (value == std::floor(value) && std::fabs(value) < 1e18) {
    snprintf(buf, sizeof(buf), "%.0f", value);
    out->append(buf);
  } else {
    snprintf(buf, sizeof(buf), "%.17g", value);
    out->append(buf);
  }
}

}  // namespace

std::string ToPrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    out.push_back(legal ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string ExportPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.samples.size() * 64);
  char buf[64];
  for (const MetricSample& sample : snapshot.samples) {
    const std::string name = ToPrometheusName(sample.name);
    out += "# TYPE " + name + " " + MetricKindName(sample.kind) + "\n";
    switch (sample.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += name + " ";
        AppendNumber(&out, sample.value);
        out += "\n";
        break;
      case MetricKind::kHistogram: {
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          uint64_t count = sample.hist.bucket_count(i);
          if (count == 0) continue;
          cumulative += count;
          snprintf(buf, sizeof(buf), "{le=\"%llu\"} %llu\n",
                   static_cast<unsigned long long>(Histogram::BucketLimit(i)),
                   static_cast<unsigned long long>(cumulative));
          out += name + "_bucket" + buf;
        }
        snprintf(buf, sizeof(buf), "{le=\"+Inf\"} %llu\n",
                 static_cast<unsigned long long>(sample.hist.count()));
        out += name + "_bucket" + buf;
        out += name + "_sum ";
        AppendNumber(&out, sample.hist.sum());
        out += "\n";
        snprintf(buf, sizeof(buf), " %llu\n",
                 static_cast<unsigned long long>(sample.hist.count()));
        out += name + "_count" + buf;
        break;
      }
    }
  }
  return out;
}

std::string ExportJson(const MetricsSnapshot& snapshot,
                       const std::vector<Event>& events) {
  std::string out;
  out.reserve(snapshot.samples.size() * 48 + events.size() * 128);
  out += "{\"ts\":";
  AppendNumber(&out, static_cast<double>(snapshot.taken_at_nanos));
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricSample& sample : snapshot.samples) {
    if (!first) out += ",";
    first = false;
    out += "\"" + sample.name + "\":";
    if (sample.kind == MetricKind::kHistogram) {
      out += sample.hist.ToJson();
    } else {
      AppendNumber(&out, sample.value);
    }
  }
  out += "},\"events\":[";
  first = true;
  for (const Event& event : events) {
    if (!first) out += ",";
    first = false;
    out += event.ToJson();
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// JsonLint — recursive-descent RFC 8259 validator
// ---------------------------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Check(size_t* error_pos) {
    SkipWs();
    bool ok = Value() && (SkipWs(), pos_ == text_.size());
    if (!ok && error_pos != nullptr) *error_pos = pos_;
    return ok;
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
        ++pos_;
        continue;
      }
      if (c < 0x20) return false;  // unescaped control character
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    } else {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

bool JsonLint(const std::string& text, size_t* error_pos) {
  return JsonChecker(text).Check(error_pos);
}

}  // namespace obs
}  // namespace pmblade
