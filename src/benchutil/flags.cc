#include "benchutil/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pmblade {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (strncmp(arg, "--", 2) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const char* eq = strchr(arg + 2, '=');
    if (eq != nullptr) {
      kv_.emplace_back(std::string(arg + 2, eq - arg - 2),
                       std::string(eq + 1));
    } else {
      kv_.emplace_back(std::string(arg + 2), "true");
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  for (const auto& [k, v] : kv_) {
    if (k == name) return &v;
  }
  return nullptr;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t Flags::Int(const std::string& name, int64_t default_value) const {
  const std::string* v = Find(name);
  return v != nullptr ? strtoll(v->c_str(), nullptr, 10) : default_value;
}

double Flags::Double(const std::string& name, double default_value) const {
  const std::string* v = Find(name);
  return v != nullptr ? strtod(v->c_str(), nullptr) : default_value;
}

bool Flags::Bool(const std::string& name, bool default_value) const {
  const std::string* v = Find(name);
  return v != nullptr ? *v == "true" || *v == "1" : default_value;
}

std::string Flags::Str(const std::string& name,
                       const std::string& default_value) const {
  const std::string* v = Find(name);
  return v != nullptr ? *v : default_value;
}

std::vector<int64_t> Flags::IntList(
    const std::string& name, std::vector<int64_t> default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) return default_value;
  std::vector<int64_t> out;
  const char* p = v->c_str();
  while (*p != '\0') {
    char* end = nullptr;
    long long parsed = strtoll(p, &end, 10);
    if (end != p) out.push_back(parsed);
    p = end != p ? end : p + 1;  // skip a malformed character
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

bool Flags::ReportUnknown(const std::vector<std::string>& known) const {
  bool any = false;
  for (const auto& [k, v] : kv_) {
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      fprintf(stderr, "unknown flag --%s\n", k.c_str());
      any = true;
    }
  }
  return any;
}

}  // namespace bench
}  // namespace pmblade
