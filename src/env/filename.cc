#include "env/filename.h"

#include <cstdio>

namespace pmblade {

namespace {

std::string NumberedName(const std::string& dir, const char* format,
                         uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), format, static_cast<unsigned long long>(number));
  return dir + buf;
}

/// Matches prefix, then one or more decimal digits, then suffix.
bool ParseNumbered(const std::string& name, const std::string& prefix,
                   const std::string& suffix, uint64_t* number) {
  const size_t end = name.size() - suffix.size();
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(end, suffix.size(), suffix) != 0) {
    return false;
  }
  *number = 0;
  for (size_t i = prefix.size(); i < end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    *number = *number * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return true;
}

}  // namespace

std::string SstFileName(const std::string& dir, uint64_t number) {
  return NumberedName(dir, "/%06llu.sst", number);
}

std::string WalFileName(const std::string& dir, uint64_t number) {
  return NumberedName(dir, "/wal-%06llu.log", number);
}

bool ParseSstFileName(const std::string& name, uint64_t* number) {
  return ParseNumbered(name, "", ".sst", number);
}

bool ParseWalFileName(const std::string& name, uint64_t* number) {
  return ParseNumbered(name, "wal-", ".log", number);
}

}  // namespace pmblade
