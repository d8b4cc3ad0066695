#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>

#include "util/string_util.h"

namespace sdadcs::util {

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv,
                             const std::vector<std::string>& value_flags,
                             const std::vector<std::string>& boolean_flags) {
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    if (name.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    // "--name=value" form.
    const size_t eq = name.find('=');
    std::string value;
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    const bool boolean = listed(boolean_flags, name);
    if (!boolean && !listed(value_flags, name)) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (eq != std::string::npos || boolean) {
      flags.values_[name] = std::move(value);
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + name + " needs a value");
    }
    flags.values_[name] = argv[++i];
  }
  return flags;
}

std::string Flags::Get(const std::string& name,
                       const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Status Flags::GetNumber(const std::string& name, double* out) const {
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  std::optional<double> v = ParseDouble(it->second);
  if (!v.has_value() || !std::isfinite(*v)) {
    return Status::InvalidArgument("--" + name +
                                   " must be a finite number, got '" +
                                   it->second + "'");
  }
  *out = *v;
  return Status::OK();
}

Status Flags::ParseCount(const std::string& name, uint64_t min, uint64_t max,
                         uint64_t* value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  uint64_t parsed = 0;
  auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end || parsed < min || parsed > max) {
    return Status::InvalidArgument("--" + name + " must be an integer in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "], got '" + text +
                                   "'");
  }
  *value = parsed;
  return Status::OK();
}

std::vector<std::string> Flags::GetList(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return {};
  return Split(it->second, ',');
}

}  // namespace sdadcs::util
