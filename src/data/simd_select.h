#ifndef SDADCS_DATA_SIMD_SELECT_H_
#define SDADCS_DATA_SIMD_SELECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdadcs::data {

/// Scratch buffers for the vectorized quickselect. The 3-way partition
/// ping-pongs between three targets (the input buffer is read-only), so
/// a select never allocates once the buffers have grown to the working
/// set. One instance per mining thread, like SplitScratch.
struct SelectScratch {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
};

/// True when the host CPU supports AVX2 (probed once per process). Every
/// vectorized kernel checks it, so a simd=true call on a host without
/// AVX2 runs the scalar path.
bool Avx2Supported();

/// The host's kernel choice for a mining run (MiningContext::simd):
/// Avx2Supported(), unless the process runs with SDADCS_KERNEL=scalar —
/// the one process-wide test override, which puts every mine on the
/// scalar oracle. Read once per process.
bool SimdByDefault();

/// k-th smallest (0-based) element of vals[0..n), which is left as it
/// was. With simd=false this is std::nth_element on a copy in
/// `scratch`; with simd=true a 3-way quickselect whose partition runs
/// on AVX2 compress stores (falling back to the copy and nth_element on
/// hosts without AVX2). The first partition pass reads the input into
/// the scratch, so past 64 values the vectorized select copies nothing.
/// Both paths return the identical double for NaN-free input: the k-th
/// order statistic of a multiset does not depend on the selection
/// algorithm. (The one representational wrinkle, -0.0 vs +0.0 among
/// equal zeros, is pinned by the differential goldens.) Requires
/// NaN-free input and k < n.
double SelectKth(const double* vals, size_t n, size_t k, bool simd,
                 SelectScratch* scratch);

/// Gathers values[rows[i]] for i in [0, n), dropping NaNs, into the
/// scratch buffer `out` (grown to at least n + 4 once and never shrunk,
/// so reusing it across calls stays memset-free). Returns the surviving
/// count; (*out)[0..count) holds the values in row order on both paths.
/// *max_out gets the maximum surviving value (NaN when none survive).
/// The SIMD path replaces the per-element NaN branch with a compare +
/// compress store.
size_t GatherNonNanMax(const double* values, const uint32_t* rows, size_t n,
                       std::vector<double>* out, double* max_out, bool simd);

/// Chunk-span form of GatherNonNanMax: `values` is one pinned chunk's
/// buffer, `rows` are *global* row ids inside that chunk, and elements
/// are read at the chunk-local index rows[i] - row_base (the SIMD path
/// subtracts the base from the gather indices, so no pointer is ever
/// biased outside its buffer). Appends survivors at `dst`, which needs 4
/// doubles of slack past the survivor count for the full-width SIMD
/// stores. Returns the survivor count; *max_out gets the span's maximum
/// survivor (-inf when none — a raw partial, unlike the wrapper's NaN,
/// so per-span maxima fold with a plain comparison).
size_t GatherNonNanMaxSpan(const double* values, uint32_t row_base,
                           const uint32_t* rows, size_t n, double* dst,
                           double* max_out, bool simd);

}  // namespace sdadcs::data

#endif  // SDADCS_DATA_SIMD_SELECT_H_
