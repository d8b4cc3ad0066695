#ifndef SDADCS_STATS_CONTINGENCY_H_
#define SDADCS_STATS_CONTINGENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdadcs::stats {

/// Dense r×c count table with row/column marginals and expected counts.
/// Contrast mining uses 2×k tables (itemset present/absent × group);
/// MVD and the discretizers use larger ones.
class ContingencyTable {
 public:
  ContingencyTable(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double cell(int r, int c) const { return counts_[Index(r, c)]; }
  void set_cell(int r, int c, double v) { counts_[Index(r, c)] = v; }
  void Add(int r, int c, double v = 1.0) { counts_[Index(r, c)] += v; }

  double RowTotal(int r) const;
  double ColTotal(int c) const;
  double GrandTotal() const;

  /// Expected count of cell (r, c) under independence:
  /// row_total * col_total / grand_total.
  double Expected(int r, int c) const;

  /// Smallest expected cell count. The paper prunes itemsets whose
  /// expected occurrence is below 5, where the chi-square approximation
  /// is unreliable (Section 3).
  double MinExpected() const;

  /// True if every expected count is >= `threshold`.
  bool AllExpectedAtLeast(double threshold) const;

 private:
  size_t Index(int r, int c) const {
    return static_cast<size_t>(r) * cols_ + c;
  }

  int rows_;
  int cols_;
  std::vector<double> counts_;
};

/// Builds the 2×k table for a pattern: row 0 = rows matching the pattern
/// per group, row 1 = rows not matching, columns = groups.
ContingencyTable MakePresenceTable(const std::vector<double>& match_counts,
                                   const std::vector<double>& group_sizes);

}  // namespace sdadcs::stats

#endif  // SDADCS_STATS_CONTINGENCY_H_
