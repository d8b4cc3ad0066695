#ifndef SDADCS_TESTS_COMMON_NUMBER_LITERALS_H_
#define SDADCS_TESTS_COMMON_NUMBER_LITERALS_H_

// Seeded number-literal families for the differential tests of
// util::ParseDouble and the CSV reader: edge literals strtod reads and
// from_chars does not (or reads differently), random doubles in several
// printf formats, and long digit strings.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "util/random.h"

namespace sdadcs::test_support {

/// Literals at the edges of the number grammar: signs, hex floats,
/// infinities and NaNs in any case, NaN payloads, subnormals, literals
/// that underflow or overflow, and near-misses that must not parse.
inline const char* const kEdgeLiterals[] = {
    "+5",      "0x1p3",   "0X1P-2",  "inf",     "INF",      "-inf",
    "+inf",    "Infinity", "nan(1)", "NAN",     "-nan",     "nan()",
    "1e-310",  "-1e-310", "1e-400",  "-1e-400", "1e999",    "-1e999",
    "1.8e308", "1.7976931348623157e308", "1.7976931348623159e308",
    "4.9e-324", "2.4e-324", "2.5e-324", "0",     "-0",       "+0",
    ".5",      "5.",      "-.5e1",   "1E+05",   "007",      "0x10",
    "1e",      "1e+",     "1.5x",    "--1",     "1..2",     "e5",
    ".",       "-",       "+",       "0x",      "1_000",    "nan(",
    "infinit", "1,5",     "12345678901234567890123",
};

/// A random double: any bit pattern (NaNs, infinities and subnormals
/// included), a plain decimal magnitude, or a magnitude spread over the
/// whole exponent range.
inline double RandomDouble(util::Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0: {
      const uint64_t bits = rng.NextU64();
      double v;
      std::memcpy(&v, &bits, sizeof v);
      return v;
    }
    case 1:
      return rng.Uniform(-1e6, 1e6);
    default: {
      const double v =
          rng.NextDouble() * std::pow(10.0, rng.UniformInt(-323, 308));
      return rng.Bernoulli(0.5) ? -v : v;
    }
  }
}

/// `v` printed with one of %.17g, %.12g, %g and %a, chosen by `format`.
inline std::string PrintDouble(double v, int format) {
  static const char* const kFormats[] = {"%.17g", "%.12g", "%g", "%a"};
  char buf[64];
  std::snprintf(buf, sizeof buf, kFormats[format % 4], v);
  return buf;
}

/// A 17-digit mantissa with a random decimal point and, sometimes, an
/// exponent.
inline std::string SeventeenDigits(util::Rng& rng) {
  std::string s = rng.Bernoulli(0.3) ? "-" : "";
  std::string digits;
  for (int i = 0; i < 17; ++i) {
    digits += static_cast<char>('0' + rng.NextBelow(10));
  }
  const size_t point = rng.NextBelow(18);
  s += digits.substr(0, point);
  if (point < 17) s.append(".").append(digits, point);
  if (rng.Bernoulli(0.4)) {
    s.append("e").append(std::to_string(rng.UniformInt(-330, 310)));
  }
  return s;
}

/// One literal from the families above.
inline std::string RandomNumberLiteral(util::Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
      return kEdgeLiterals[rng.NextBelow(std::size(kEdgeLiterals))];
    case 1:
      return SeventeenDigits(rng);
    case 2:
      return std::to_string(rng.UniformInt(-1000, 1000));
    default:
      return PrintDouble(RandomDouble(rng),
                         static_cast<int>(rng.NextBelow(4)));
  }
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_NUMBER_LITERALS_H_
