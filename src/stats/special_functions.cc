#include "stats/special_functions.h"

#include <math.h>

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace sdadcs::stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

// Series representation of P(a, x), valid (fast-converging) for x < a+1.
double GammaPSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued-fraction representation of Q(a, x), valid for x >= a+1
// (modified Lentz).
double GammaQContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

// Continued fraction for the incomplete beta (modified Lentz).
double BetaContinuedFraction(double x, double a, double b) {
  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double LogGamma(double x) {
  SDADCS_CHECK(x > 0.0);
  // lgamma_r, not std::lgamma: glibc's lgamma stores the sign in the
  // global `signgam`, a data race between concurrent mines.
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double RegularizedGammaP(double a, double x) {
  SDADCS_CHECK(a > 0.0);
  SDADCS_CHECK(x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  SDADCS_CHECK(a > 0.0);
  SDADCS_CHECK(x >= 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double RegularizedBeta(double x, double a, double b) {
  SDADCS_CHECK(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                    a * std::log(x) + b * std::log1p(-x);
  double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(x, a, b) / a;
  }
  return 1.0 - front * BetaContinuedFraction(1.0 - x, b, a) / b;
}

double LogChoose(int n, int k) {
  SDADCS_CHECK(n >= 0 && k >= 0 && k <= n);
  if (k == 0 || k == n) return 0.0;
  return LogGamma(n + 1.0) - LogGamma(k + 1.0) - LogGamma(n - k + 1.0);
}

}  // namespace sdadcs::stats
