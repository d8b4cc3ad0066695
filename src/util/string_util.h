#ifndef SDADCS_UTIL_STRING_UTIL_H_
#define SDADCS_UTIL_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sdadcs::util {

/// Splits `input` on `delim`. Consecutive delimiters produce empty fields;
/// an empty input produces a single empty field (CSV semantics).
std::vector<std::string> Split(std::string_view input, char delim);

/// True for the bytes std::isspace accepts in the "C" locale: space,
/// \t, \n, \v, \f and \r.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Removes leading and trailing ASCII whitespace (IsSpace).
inline std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Parses a double, requiring the whole (trimmed) string to be consumed.
/// Returns nullopt for empty strings or trailing garbage. Accepts what
/// strtod accepts in the "C" locale and returns its bits: a leading '+',
/// hex floats, and "nan"/"inf" in any case. A literal outside the double
/// range parses to the nearest double: a subnormal or zero when it
/// underflows, an infinity when it overflows. Decimal literals take
/// std::from_chars; anything it refuses, stops short on or reads as a
/// NaN goes to strtod.
std::optional<double> ParseDouble(std::string_view s);


/// Lower-cases ASCII characters.
std::string ToLower(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes `s` for inclusion inside a JSON string literal (no quotes):
/// quote and backslash, \n \r \t by name, every other byte below 0x20
/// as \u00XX. The repository's one JSON escaper — the wire protocol
/// and the report writers both use it.
std::string JsonEscape(std::string_view s);

/// Formats a double compactly for display: up to `precision` significant
/// digits, no trailing zeros, "-inf"/"inf" for infinities.
std::string FormatDouble(double v, int precision = 6);

}  // namespace sdadcs::util

#endif  // SDADCS_UTIL_STRING_UTIL_H_
