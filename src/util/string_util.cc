#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sdadcs::util {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::optional<double> ParseDouble(std::string_view s) {
  const std::string_view t = Trim(s);
  if (t.empty()) return std::nullopt;
  const char* const end = t.data() + t.size();
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(t.data(), end, v);
  if (ec == std::errc() && stop == end && !std::isnan(v)) return v;
  // strtod takes what from_chars refuses or reads differently: a leading
  // '+', hex floats, a NaN's payload bits, and literals outside the
  // double range. ERANGE is not an error here: strtod still returns the
  // nearest double (a subnormal or zero on underflow, an infinity on
  // overflow), and a writer printing a subnormal with %.17g emits such a
  // literal. Callers that cannot take an infinity reject it themselves.
  const std::string copy(t);
  char* copy_end = nullptr;
  v = std::strtod(copy.c_str(), &copy_end);
  if (copy_end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double v, int precision) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::string s = StrFormat("%.*g", precision, v);
  return s;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace sdadcs::util
