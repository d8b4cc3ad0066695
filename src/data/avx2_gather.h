#ifndef SDADCS_DATA_AVX2_GATHER_H_
#define SDADCS_DATA_AVX2_GATHER_H_

// The AVX2 double gather of the vectorized kernels, for files that
// compile x86 code paths (each guards its own include of this header).

#include <immintrin.h>

namespace sdadcs::data {

/// base[idx[l]] for each of the four lanes l: the masked gather with
/// every lane enabled and an explicit zero source. It is the same
/// vgatherdpd instruction _mm256_i32gather_pd emits; GCC 12 warns that
/// the unmasked intrinsic's undefined source may be used uninitialized.
__attribute__((target("avx2"), always_inline)) inline __m256d GatherPd(
    const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_AVX2_GATHER_H_
