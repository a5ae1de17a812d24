#include "symbolic/etree.hpp"

#include <algorithm>

#include "sparse/convert.hpp"
#include "support/error.hpp"

namespace th {

EliminationTree elimination_tree(const Csr& a) {
  return elimination_tree_symmetric(symmetrize_pattern(a));
}

EliminationTree elimination_tree_symmetric(const Csr& s) {
  TH_CHECK(s.n_rows == s.n_cols);
  const index_t n = s.n_rows;
  EliminationTree t;
  t.parent.assign(static_cast<std::size_t>(n), -1);

  // Liu's algorithm with path compression through `ancestor`.
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for (offset_t p = s.row_ptr[j]; p < s.row_ptr[j + 1]; ++p) {
      index_t i = s.col_idx[p];
      if (i >= j) continue;  // lower-triangular entries of column j == row j
      // Walk from i to the root of its current subtree, compressing.
      while (i != -1 && i < j) {
        const index_t next = ancestor[i];
        ancestor[i] = j;
        if (next == -1) {
          t.parent[i] = j;
          break;
        }
        i = next;
      }
    }
  }

  // Bottom-up depth: process vertices in increasing order (parents always
  // have larger indices in an etree).
  t.depth.assign(static_cast<std::size_t>(n), 0);
  for (index_t v = 0; v < n; ++v) {
    const index_t p = t.parent[v];
    if (p != -1) {
      TH_ASSERT(p > v);
      t.depth[p] = std::max(t.depth[p], t.depth[v] + 1);
    }
  }
  index_t max_depth = 0;
  for (index_t v = 0; v < n; ++v) max_depth = std::max(max_depth, t.depth[v]);
  t.height = n > 0 ? max_depth + 1 : 0;
  return t;
}

std::vector<index_t> postorder(const EliminationTree& t) {
  const index_t n = t.n();
  // Build child lists (children appear in increasing order for determinism).
  std::vector<std::vector<index_t>> children(static_cast<std::size_t>(n));
  std::vector<index_t> roots;
  for (index_t v = 0; v < n; ++v) {
    if (t.parent[v] == -1) {
      roots.push_back(v);
    } else {
      children[t.parent[v]].push_back(v);
    }
  }
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  // Iterative DFS emitting children before parents.
  std::vector<std::pair<index_t, std::size_t>> stack;
  for (index_t r : roots) {
    stack.push_back({r, 0});
    while (!stack.empty()) {
      auto& [v, next_child] = stack.back();
      if (next_child < children[v].size()) {
        const index_t c = children[v][next_child++];
        stack.push_back({c, 0});
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  TH_ASSERT(static_cast<index_t>(order.size()) == n);
  return order;
}

}  // namespace th
