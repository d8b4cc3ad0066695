#ifndef SDADCS_UTIL_FLAGS_H_
#define SDADCS_UTIL_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace sdadcs::util {

/// Minimal command-line parser for the `sdadcs_tool` convention:
///
///   <command> <positional...> --name value --bool-flag
///
/// Flags start with "--". A tool names every flag it understands: a
/// flag listed in `boolean_flags` consumes no value, one listed in
/// `value_flags` takes the next argument (or "--name=value"). Any other
/// flag is an InvalidArgument naming it, so a misspelt or retired flag
/// fails loudly instead of being dropped; so is a value flag at the end
/// of the line without its value.
class Flags {
 public:
  /// Parses argv[1..).
  static StatusOr<Flags> Parse(int argc, const char* const* argv,
                               const std::vector<std::string>& value_flags,
                               const std::vector<std::string>& boolean_flags);

  /// Positional arguments in order (command, paths, ...).
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Raw string value ("" for boolean flags and absent flags).
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const;

  /// Checked real number: `*out` is left alone when the flag is absent
  /// and set when the whole value parses as a finite number
  /// (util::ParseDouble); anything else is an InvalidArgument naming the
  /// flag.
  Status GetNumber(const std::string& name, double* out) const;

  /// Checked count: `*out` is left alone when the flag is absent and set
  /// when it is a plain decimal integer in [min, max] (max capped at what
  /// T holds); anything else is an InvalidArgument naming the flag.
  template <typename T>
  Status GetCount(const std::string& name, T* out, uint64_t max = UINT64_MAX,
                  uint64_t min = 0) const {
    uint64_t value = static_cast<uint64_t>(*out);
    Status status = ParseCount(
        name, min,
        std::min(max, static_cast<uint64_t>(std::numeric_limits<T>::max())),
        &value);
    if (status.ok()) *out = static_cast<T>(value);
    return status;
  }

  /// Comma-separated list value.
  std::vector<std::string> GetList(const std::string& name) const;

 private:
  /// GetCount's parse; `*value` is replaced only when the flag is set.
  Status ParseCount(const std::string& name, uint64_t min, uint64_t max,
                    uint64_t* value) const;

  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
};

}  // namespace sdadcs::util

#endif  // SDADCS_UTIL_FLAGS_H_
