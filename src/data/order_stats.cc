#include "data/order_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/chunks.h"
#include "util/logging.h"

namespace sdadcs::data {

void GatherValuesInto(const Dataset& db, int attr, const Selection& sel,
                      std::vector<double>* out) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  out->clear();
  out->reserve(sel.size());
  ForEachChunkSpan(chunks.layout(), rows, sel.size(),
                   [&](uint32_t chunk, size_t b, size_t e) {
                     PinnedChunk pin = chunks.Continuous(attr, chunk);
                     const double* v = pin.values();
                     for (size_t i = b; i < e; ++i) {
                       double x = v[rows[i] - pin.row_base()];
                       if (!std::isnan(x)) out->push_back(x);
                     }
                   });
}

double MedianInSelection(const Dataset& db, int attr, const Selection& sel,
                         std::vector<double>* scratch) {
  std::vector<double> local;
  std::vector<double>& vals = scratch != nullptr ? *scratch : local;
  GatherValuesInto(db, attr, sel, &vals);
  if (vals.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Lower middle: rank (n-1)/2, so that "value <= median" keeps at least
  // one element on each side whenever the values are not all equal.
  size_t k = (vals.size() - 1) / 2;
  std::nth_element(vals.begin(), vals.begin() + k, vals.end());
  return vals[k];
}

size_t GatherNonMissing(const Dataset& db, int attr, const Selection& sel,
                        std::vector<double>* out, bool simd,
                        double* max_out) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  const size_t n = sel.size();
  if (out->size() < n + 4) out->resize(n + 4);
  double* dst = out->data();
  // Chunk-wise gather: survivors append at the running count, so the
  // buffer holds the same row-order value sequence a monolithic gather
  // gives; the per-span slack stays within the n + 4 buffer because
  // every span writes at most 4 past its survivors.
  size_t cnt = 0;
  double mx = -std::numeric_limits<double>::infinity();
  ForEachChunkSpan(chunks.layout(), rows, n,
                   [&](uint32_t chunk, size_t b, size_t e) {
                     PinnedChunk pin = chunks.Continuous(attr, chunk);
                     double span_max;
                     cnt += GatherNonNanMaxSpan(pin.values(), pin.row_base(),
                                                rows + b, e - b, dst + cnt,
                                                &span_max, simd);
                     if (span_max > mx) mx = span_max;
                   });
  if (max_out != nullptr) {
    *max_out = cnt > 0 ? mx : std::numeric_limits<double>::quiet_NaN();
  }
  return cnt;
}

double QuantileInSelection(const Dataset& db, int attr, const Selection& sel,
                           double q, std::vector<double>* scratch) {
  SDADCS_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> local;
  std::vector<double>& vals = scratch != nullptr ? *scratch : local;
  GatherValuesInto(db, attr, sel, &vals);
  if (vals.empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t k = static_cast<size_t>(q * static_cast<double>(vals.size() - 1));
  std::nth_element(vals.begin(), vals.begin() + k, vals.end());
  return vals[k];
}

MinMax MinMaxInSelection(const Dataset& db, int attr, const Selection& sel) {
  ColumnChunks chunks = db.chunks();
  const uint32_t* rows = sel.rows().data();
  MinMax mm{std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::quiet_NaN()};
  bool any = false;
  ForEachChunkSpan(
      chunks.layout(), rows, sel.size(),
      [&](uint32_t chunk, size_t b, size_t e) {
        PinnedChunk pin = chunks.Continuous(attr, chunk);
        const double* vals = pin.values();
        for (size_t i = b; i < e; ++i) {
          double v = vals[rows[i] - pin.row_base()];
          if (std::isnan(v)) {
            mm.missing = true;
            continue;
          }
          if (!any) {
            mm.min = mm.max = v;
            any = true;
          } else {
            if (v < mm.min) mm.min = v;
            if (v > mm.max) mm.max = v;
          }
        }
      });
  return mm;
}

}  // namespace sdadcs::data
