// Elimination tree (Liu, 1990) of a structurally symmetric matrix, plus the
// derived quantities the schedulers need: postorder, per-node level
// (distance from root), and tree height. The etree is the dependency
// skeleton of the numeric factorisation (Figure 6(b) of the paper).
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace th {

struct EliminationTree {
  std::vector<index_t> parent;  // parent[v] = etree parent, -1 for roots
  std::vector<index_t> depth;   // bottom-up depth: 0 for leaves, and
                                // depth[v] = 1 + max(depth of children).
                                // Columns of equal depth are the "levels"
                                // SuperLU batches within (Figure 6(b)).
  index_t height = 0;           // max depth + 1, i.e. number of tree levels

  index_t n() const { return static_cast<index_t>(parent.size()); }
};

/// Compute the elimination tree of the symmetrized pattern of A.
EliminationTree elimination_tree(const Csr& a);

/// Elimination tree of a pattern that is already structurally symmetric
/// (e.g. the output of symmetrize_pattern); skips the symmetrization, so an
/// analysis that symmetrizes once can share the result.
EliminationTree elimination_tree_symmetric(const Csr& sym);

/// Postorder of the etree: children before parents, deterministic.
std::vector<index_t> postorder(const EliminationTree& t);

}  // namespace th
