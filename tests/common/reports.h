#ifndef SDADCS_TESTS_COMMON_REPORTS_H_
#define SDADCS_TESTS_COMMON_REPORTS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "util/run_control.h"

namespace sdadcs::test_support {

/// Everything a progress report carries, one report per line, so two
/// report sequences compare as strings and a mismatch shows its report.
inline std::string RenderReports(
    const std::vector<util::RunProgress>& reports) {
  std::string out;
  char buf[256];
  for (const util::RunProgress& p : reports) {
    std::snprintf(buf, sizeof(buf),
                  "level=%d done=%llu/%llu threshold=%.17g patterns=%llu "
                  "best=%.17g version=%llu improved=%d\n",
                  p.level, static_cast<unsigned long long>(p.candidates_done),
                  static_cast<unsigned long long>(p.candidates_total),
                  p.topk_threshold,
                  static_cast<unsigned long long>(p.patterns_found),
                  p.best_measure,
                  static_cast<unsigned long long>(p.topk_version),
                  p.improved ? 1 : 0);
    out += buf;
  }
  return out;
}

}  // namespace sdadcs::test_support

#endif  // SDADCS_TESTS_COMMON_REPORTS_H_
