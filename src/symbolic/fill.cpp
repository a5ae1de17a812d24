#include "symbolic/fill.hpp"

#include <algorithm>

#include "sparse/convert.hpp"
#include "support/error.hpp"

namespace th {

FillPattern symbolic_fill(const Csr& a, const EliminationTree& t) {
  return symbolic_fill_symmetric(symmetrize_pattern(a), t);
}

FillPattern symbolic_fill_symmetric(const Csr& s, const EliminationTree& t) {
  TH_CHECK(s.n_rows == s.n_cols);
  const index_t n = s.n_rows;
  TH_CHECK(t.n() == n);

  std::vector<std::vector<index_t>> children(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    if (t.parent[v] != -1) children[t.parent[v]].push_back(v);
  }

  FillPattern f;
  f.n = n;
  f.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);

  offset_t total = 0;
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& col = cols[j];
    col.push_back(j);
    mark[j] = j;
    // Entries of A_sym at or below the diagonal in column j (== row j by
    // symmetry).
    for (offset_t p = s.row_ptr[j]; p < s.row_ptr[j + 1]; ++p) {
      const index_t i = s.col_idx[p];
      if (i > j && mark[i] != j) {
        mark[i] = j;
        col.push_back(i);
      }
    }
    // Merge children columns (minus their diagonals, minus anything <= j).
    for (const index_t c : children[j]) {
      for (const index_t i : cols[c]) {
        if (i > j && mark[i] != j) {
          mark[i] = j;
          col.push_back(i);
        }
      }
    }
    std::sort(col.begin(), col.end());
    total += static_cast<offset_t>(col.size());
    f.col_ptr[static_cast<std::size_t>(j) + 1] = total;
  }

  f.row_idx.reserve(static_cast<std::size_t>(total));
  for (index_t j = 0; j < n; ++j) {
    f.row_idx.insert(f.row_idx.end(), cols[j].begin(), cols[j].end());
  }
  return f;
}

FillPattern symbolic_fill(const Csr& a) {
  const Csr s = symmetrize_pattern(a);
  return symbolic_fill_symmetric(s, elimination_tree_symmetric(s));
}

}  // namespace th
