// Dense microkernels on column-major buffers. These are the numeric bodies
// of the four Executor task types (GETRF / TSTRF / GEESM / SSSSM) in their
// dense form; kernels/tile.hpp provides the sparse-block variants.
//
// No pivoting anywhere: generated systems are diagonally dominant
// (DESIGN.md §7). A zero/tiny pivot throws th::Error rather than silently
// producing NaNs.
#pragma once

#include <atomic>

#include "support/types.hpp"

namespace th {

/// In-place unblocked LU without pivoting: A = L*U with unit-diagonal L
/// stored below the diagonal. A is n x n column-major with leading
/// dimension lda. Throws on |pivot| < tiny.
void getrf_nopiv(index_t n, real_t* a, index_t lda);

/// B := L^{-1} * B, where L is m x m unit lower triangular (diagonal not
/// read), B is m x n. Used by GEESM: U(k,j) = L(k,k)^{-1} A(k,j).
void trsm_lower_left_unit(index_t m, index_t n, const real_t* l, index_t ldl,
                          real_t* b, index_t ldb);

/// B := B * U^{-1}, where U is n x n upper triangular (non-unit diagonal),
/// B is m x n. Used by TSTRF: L(i,k) = A(i,k) U(k,k)^{-1}.
void trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                      real_t* b, index_t ldb);

/// C := C - A * B (m x k times k x n), skipping zero entries of B. The
/// SLU core's supernodal Schur update (the PLU core's SSSSM walks the U
/// tile's nonzero index instead, kernels/tile.hpp).
void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc);

/// Atomic fetch-add on a plain double via std::atomic_ref: the host-side
/// equivalent of CUDA atomicAdd on FP64, used when conflicting SSSSM tasks
/// of one batch (paper §2.3, tasks 9S0/9S1) update a tile concurrently.
/// All concurrent writers of `target` must also use atomic access.
inline void atomic_add(real_t& target, real_t delta) {
  std::atomic_ref<real_t> ref(target);
  real_t cur = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace th
