#include "data/simd_select.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace sdadcs::data {
namespace {

// The SIMD quickselect must return the identical double to
// std::nth_element for every k — duplicates, sorted, reversed and
// random inputs alike. On hosts without AVX2 the simd path degrades to
// nth_element and the test still pins the dispatch contract.
TEST(SimdSelectTest, MatchesNthElementForEveryK) {
  util::Rng rng(7);
  SelectScratch scratch;
  for (size_t n : {1u, 2u, 3u, 5u, 63u, 64u, 65u, 257u, 1000u}) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<double> base(n);
      for (size_t i = 0; i < n; ++i) {
        switch (variant) {
          case 0:  // random
            base[i] = rng.NextDouble() * 100.0 - 50.0;
            break;
          case 1:  // heavy duplicates
            base[i] = static_cast<double>(static_cast<int>(i) % 7);
            break;
          case 2:  // sorted ascending
            base[i] = static_cast<double>(i);
            break;
          default:  // all equal
            base[i] = 42.0;
            break;
        }
      }
      // Every k for small n; a spread of ks for larger n.
      std::vector<size_t> ks;
      if (n <= 65) {
        for (size_t k = 0; k < n; ++k) ks.push_back(k);
      } else {
        ks = {0, 1, n / 4, (n - 1) / 2, n / 2, n - 2, n - 1};
      }
      for (size_t k : ks) {
        std::vector<double> a = base;
        std::vector<double> b = base;
        std::nth_element(a.begin(), a.begin() + static_cast<long>(k),
                         a.end());
        double expected = a[k];
        for (bool simd : {false, true}) {
          double got = SelectKth(b.data(), n, k, simd, &scratch);
          EXPECT_EQ(expected, got) << "n=" << n << " k=" << k
                                   << " variant=" << variant
                                   << " simd=" << simd;
          // The input is left as it was, at every size.
          EXPECT_EQ(b, base) << "n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(SimdSelectTest, GatherDropsNanKeepsOrderAndMax) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values;
  std::vector<uint32_t> rows;
  util::Rng rng(13);
  for (uint32_t i = 0; i < 533; ++i) {
    values.push_back(rng.NextDouble() < 0.2 ? nan : rng.NextDouble() * 10.0);
    rows.push_back(i);
  }
  // Reference: scalar row-order gather.
  std::vector<double> expected;
  double expected_max = -std::numeric_limits<double>::infinity();
  for (uint32_t r : rows) {
    if (std::isnan(values[r])) continue;
    expected.push_back(values[r]);
    expected_max = std::max(expected_max, values[r]);
  }
  for (bool simd : {false, true}) {
    std::vector<double> out;
    double mx = 0.0;
    size_t cnt =
        GatherNonNanMax(values.data(), rows.data(), rows.size(), &out, &mx,
                        simd);
    ASSERT_EQ(expected.size(), cnt) << "simd=" << simd;
    for (size_t i = 0; i < cnt; ++i) {
      EXPECT_EQ(expected[i], out[i]) << "simd=" << simd << " i=" << i;
    }
    EXPECT_EQ(expected_max, mx) << "simd=" << simd;
  }
}

TEST(SimdSelectTest, GatherAllNanReportsNanMaxAndZeroCount) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values(9, nan);
  std::vector<uint32_t> rows{0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (bool simd : {false, true}) {
    std::vector<double> out;
    double mx = 0.0;
    size_t cnt = GatherNonNanMax(values.data(), rows.data(), rows.size(),
                                 &out, &mx, simd);
    EXPECT_EQ(0u, cnt) << "simd=" << simd;
    EXPECT_TRUE(std::isnan(mx)) << "simd=" << simd;
  }
}

}  // namespace
}  // namespace sdadcs::data
