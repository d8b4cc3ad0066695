#include "stats/contingency.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace sdadcs::stats {

ContingencyTable::ContingencyTable(int rows, int cols)
    : rows_(rows), cols_(cols),
      counts_(static_cast<size_t>(rows) * cols, 0.0) {
  SDADCS_CHECK(rows >= 1 && cols >= 1);
}

double ContingencyTable::RowTotal(int r) const {
  double total = 0.0;
  for (int c = 0; c < cols_; ++c) total += cell(r, c);
  return total;
}

double ContingencyTable::ColTotal(int c) const {
  double total = 0.0;
  for (int r = 0; r < rows_; ++r) total += cell(r, c);
  return total;
}

double ContingencyTable::GrandTotal() const {
  double total = 0.0;
  for (double v : counts_) total += v;
  return total;
}

double ContingencyTable::Expected(int r, int c) const {
  double grand = GrandTotal();
  if (grand <= 0.0) return 0.0;
  return RowTotal(r) * ColTotal(c) / grand;
}

double ContingencyTable::MinExpected() const {
  double grand = GrandTotal();
  if (grand <= 0.0) return 0.0;
  double min_e = std::numeric_limits<double>::infinity();
  for (int r = 0; r < rows_; ++r) {
    double rt = RowTotal(r);
    for (int c = 0; c < cols_; ++c) {
      min_e = std::min(min_e, rt * ColTotal(c) / grand);
    }
  }
  return min_e;
}

bool ContingencyTable::AllExpectedAtLeast(double threshold) const {
  return MinExpected() >= threshold;
}

ContingencyTable MakePresenceTable(const std::vector<double>& match_counts,
                                   const std::vector<double>& group_sizes) {
  SDADCS_CHECK(match_counts.size() == group_sizes.size());
  ContingencyTable t(2, static_cast<int>(group_sizes.size()));
  for (size_t g = 0; g < group_sizes.size(); ++g) {
    t.set_cell(0, static_cast<int>(g), match_counts[g]);
    t.set_cell(1, static_cast<int>(g), group_sizes[g] - match_counts[g]);
  }
  return t;
}

}  // namespace sdadcs::stats
