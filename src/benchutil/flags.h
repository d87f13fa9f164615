// Shared --flag=value command-line parsing for the bench/CLI tools
// (benchmark_kv, crash_stress, pmblade_server, net_bench).

#ifndef PMBLADE_BENCHUTIL_FLAGS_H_
#define PMBLADE_BENCHUTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pmblade {
namespace bench {

/// Command-line flag access: --name=value (or bare --name, read as "true").
/// Anything not starting with "--" is collected into positional(). Typed
/// getters fall back to the given default when the flag is absent.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  int64_t Int(const std::string& name, int64_t default_value) const;
  double Double(const std::string& name, double default_value) const;
  bool Bool(const std::string& name, bool default_value) const;
  std::string Str(const std::string& name,
                  const std::string& default_value) const;

  /// Comma-separated integer list, e.g. --connections=1,8,32. Returns
  /// `default_value` when the flag is absent; empty / malformed entries are
  /// skipped.
  std::vector<int64_t> IntList(const std::string& name,
                               std::vector<int64_t> default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Strict parsing: prints "unknown flag --<name>" to stderr for each
  /// flag not in `known`, and returns whether there was any.
  bool ReportUnknown(const std::vector<std::string>& known) const;

 private:
  /// The value of the first --name, or nullptr when absent.
  const std::string* Find(const std::string& name) const;

  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> positional_;
};

}  // namespace bench
}  // namespace pmblade

#endif  // PMBLADE_BENCHUTIL_FLAGS_H_
