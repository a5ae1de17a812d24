// Scalar symbolic factorisation: the exact nonzero pattern of L (and, by
// structural symmetry, U^T) for an LU factorisation without pivoting of a
// structurally symmetric matrix. This is the "symbolic" phase of Figure 1
// and the input to supernode detection.
#pragma once

#include <vector>

#include "symbolic/etree.hpp"

namespace th {

/// Column-compressed pattern of L, including the diagonal. row_idx within a
/// column is sorted ascending; the first entry of each column is the
/// diagonal.
struct FillPattern {
  index_t n = 0;
  std::vector<offset_t> col_ptr;
  std::vector<index_t> row_idx;

  offset_t nnz_l() const { return static_cast<offset_t>(row_idx.size()); }
  /// nnz(L+U) counting the shared diagonal once, assuming pattern symmetry.
  offset_t nnz_lu() const {
    return 2 * nnz_l() - static_cast<offset_t>(n);
  }
};

/// Exact fill pattern via child-merge on the elimination tree:
///   struct(L(:,j)) = struct(A_sym(j:n, j)) ∪ ⋃_{c: parent(c)=j} struct(L(:,c)) \ {c}
/// Runs in O(|L|) time and memory.
FillPattern symbolic_fill(const Csr& a, const EliminationTree& t);

/// As above for a pattern that is already structurally symmetric (e.g. the
/// output of symmetrize_pattern); skips the symmetrization.
FillPattern symbolic_fill_symmetric(const Csr& sym, const EliminationTree& t);

/// Convenience: symmetrize once, build etree, compute fill.
FillPattern symbolic_fill(const Csr& a);

}  // namespace th
