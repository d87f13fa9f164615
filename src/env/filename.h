// Names of the files in a DB directory. Every SSTable and write-ahead log
// is named here, and recovery parses directory entries with the same rules.

#ifndef PMBLADE_ENV_FILENAME_H_
#define PMBLADE_ENV_FILENAME_H_

#include <cstdint>
#include <string>

namespace pmblade {

/// <dir>/000123.sst and <dir>/wal-000123.log.
std::string SstFileName(const std::string& dir, uint64_t number);
std::string WalFileName(const std::string& dir, uint64_t number);

/// Parse a bare directory entry of those forms; false for any other name.
bool ParseSstFileName(const std::string& name, uint64_t* number);
bool ParseWalFileName(const std::string& name, uint64_t* number);

}  // namespace pmblade

#endif  // PMBLADE_ENV_FILENAME_H_
