// SIMD inner loops for the dense microkernels (kernels/dense.cpp).
//
// The four task-type bodies (GETRF / TSTRF / GEESM / SSSSM) spend nearly
// all their time in two contiguous column-major loops, and the nonzero
// index of a factored tile (kernels/tile.hpp) is built by a third:
//
//   axpy_minus:   y[i] -= x[i] * alpha   (the rank-1 update / Schur inner loop)
//   scale:        x[i] *= alpha          (the pivot / diagonal scaling loop)
//   nonzero_mask: bit i = (x[i] != 0.0)  (one index word from a column segment)
//
// All three are vectorised on a dual path with runtime dispatch, mirroring the
// CRC32C idiom in support/binio.hpp:
//
//   - an AVX2 intrinsic path compiled with a per-function target attribute
//     (no -mavx2 on the whole build), selected at runtime via
//     __builtin_cpu_supports("avx2");
//   - a portable path that leans on `#pragma omp simd` when the build has
//     -fopenmp-simd (kernels/CMakeLists.txt probes for it and defines
//     TH_OMP_SIMD), plain scalar otherwise.
//
// Bit-exactness contract (det-mode identity depends on it): every path
// computes each element as one IEEE-754 multiply followed by one subtract —
// the AVX2 path deliberately uses _mm256_mul_pd + _mm256_sub_pd rather than
// an FMA, and the scalar bodies split the product into its own statement so
// ISO-mode -ffp-contract=on cannot contract it either. All paths therefore
// produce bitwise-identical results, and the runtime dispatch never changes
// numerics — only throughput. nonzero_mask compares with _CMP_NEQ_UQ, the
// predicate of C's `!=`: NaN sets its bit, +0.0 and -0.0 do not, so both
// paths produce the same bits for every input. DESIGN.md §17 carries the
// dispatch table.
#pragma once

#include <cstdint>

#include "support/types.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define TH_KERNELS_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(TH_OMP_SIMD) || defined(_OPENMP)
#define TH_PRAGMA_SIMD _Pragma("omp simd")
#else
#define TH_PRAGMA_SIMD
#endif

namespace th::simd {

namespace detail {

inline void axpy_minus_portable(index_t n, const real_t* x, real_t alpha,
                                real_t* y) {
  TH_PRAGMA_SIMD
  for (index_t i = 0; i < n; ++i) {
    const real_t p = x[i] * alpha;  // own statement: no FMA contraction
    y[i] = y[i] - p;
  }
}

inline void scale_portable(index_t n, real_t* x, real_t alpha) {
  TH_PRAGMA_SIMD
  for (index_t i = 0; i < n; ++i) {
    x[i] = x[i] * alpha;
  }
}

inline std::uint64_t nonzero_mask_portable(index_t n, const real_t* x) {
  std::uint64_t m = 0;
  for (index_t i = 0; i < n; ++i) {
    m |= static_cast<std::uint64_t>(x[i] != 0.0) << i;
  }
  return m;
}

#if defined(TH_KERNELS_SIMD_AVX2)
__attribute__((target("avx2"))) inline void axpy_minus_avx2(index_t n,
                                                            const real_t* x,
                                                            real_t alpha,
                                                            real_t* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    // mul then sub — NOT vfmsub — to stay bitwise identical to the
    // portable path.
    _mm256_storeu_pd(y + i, _mm256_sub_pd(vy, _mm256_mul_pd(vx, va)));
  }
  for (; i < n; ++i) {
    const real_t p = x[i] * alpha;
    y[i] = y[i] - p;
  }
}

__attribute__((target("avx2"))) inline void scale_avx2(index_t n, real_t* x,
                                                       real_t alpha) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] = x[i] * alpha;
  }
}

__attribute__((target("avx2"))) inline std::uint64_t nonzero_mask_avx2(
    index_t n, const real_t* x) {
  const __m256d zero = _mm256_setzero_pd();
  std::uint64_t m = 0;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ne =
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_NEQ_UQ);
    m |= static_cast<std::uint64_t>(_mm256_movemask_pd(ne)) << i;
  }
  for (; i < n; ++i) {
    m |= static_cast<std::uint64_t>(x[i] != 0.0) << i;
  }
  return m;
}
#endif  // TH_KERNELS_SIMD_AVX2

}  // namespace detail

/// Whether the runtime dispatch resolved to the AVX2 intrinsic path on
/// this machine (build-time capable AND the CPU reports avx2).
inline bool avx2_active() {
#if defined(TH_KERNELS_SIMD_AVX2)
  static const bool hw = __builtin_cpu_supports("avx2") != 0;
  return hw;
#else
  return false;
#endif
}

/// Human-readable name of the active path, for bench banners and the obs
/// dispatch table: "avx2", "portable+omp-simd", or "portable".
inline const char* dispatch_name() {
  if (avx2_active()) return "avx2";
#if defined(TH_OMP_SIMD) || defined(_OPENMP)
  return "portable+omp-simd";
#else
  return "portable";
#endif
}

/// y[i] -= x[i] * alpha for i in [0, n). x and y must not alias.
inline void axpy_minus(index_t n, const real_t* x, real_t alpha, real_t* y) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (avx2_active()) {
    detail::axpy_minus_avx2(n, x, alpha, y);
    return;
  }
#endif
  detail::axpy_minus_portable(n, x, alpha, y);
}

/// x[i] *= alpha for i in [0, n).
inline void scale(index_t n, real_t* x, real_t alpha) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (avx2_active()) {
    detail::scale_avx2(n, x, alpha);
    return;
  }
#endif
  detail::scale_portable(n, x, alpha);
}

/// Bit i set iff x[i] != 0.0, for i in [0, n), n <= 64: NaN and Inf set
/// their bit, +0.0 and -0.0 do not.
inline std::uint64_t nonzero_mask(index_t n, const real_t* x) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (avx2_active()) return detail::nonzero_mask_avx2(n, x);
#endif
  return detail::nonzero_mask_portable(n, x);
}

}  // namespace th::simd
