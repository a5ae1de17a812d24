#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "gen/registry.hpp"
#include "gen/suite.hpp"
#include "order/graph.hpp"
#include "sparse/convert.hpp"
#include "order/reorder.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "symbolic/fill.hpp"

namespace th {
namespace {

TEST(Perm, IdentityAndInverse) {
  const Permutation id = identity_permutation(5);
  EXPECT_TRUE(is_valid_permutation(id));
  EXPECT_EQ(invert_permutation(id), id);
  const Permutation p{2, 0, 1};
  const Permutation inv = invert_permutation(p);
  EXPECT_EQ(inv, (Permutation{1, 2, 0}));
}

TEST(Perm, InvalidDetected) {
  EXPECT_FALSE(is_valid_permutation({0, 0, 1}));
  EXPECT_FALSE(is_valid_permutation({0, 3}));
  EXPECT_THROW(invert_permutation({1, 1}), Error);
}

TEST(Perm, SymmetricPermutationPreservesValues) {
  const Csr a = finalize_system(grid2d_laplacian(4, 4), 3);
  const Permutation p = rcm_order(a);
  const Csr b = apply_symmetric_permutation(a, p);
  b.check();
  EXPECT_EQ(b.nnz(), a.nnz());
  // Spot-check: B(i,j) == A(perm[i], perm[j]).
  const auto da = to_dense(a);
  const auto db = to_dense(b);
  for (index_t i = 0; i < a.n_rows; ++i) {
    for (index_t j = 0; j < a.n_cols; ++j) {
      EXPECT_DOUBLE_EQ(
          db[static_cast<std::size_t>(i) * a.n_cols + j],
          da[static_cast<std::size_t>(p[i]) * a.n_cols + p[j]]);
    }
  }
}

TEST(Perm, VectorPermutationRoundTrip) {
  const Permutation p{2, 0, 1};
  const std::vector<real_t> v{10, 20, 30};
  const auto pv = apply_permutation(v, p);
  EXPECT_EQ(pv, (std::vector<real_t>{30, 10, 20}));
  EXPECT_EQ(apply_inverse_permutation(pv, p), v);
}

TEST(Graph, AdjacencyExcludesDiagonal) {
  const Csr a = grid2d_laplacian(3, 3);
  const AdjacencyGraph g = build_adjacency(a);
  EXPECT_EQ(g.n, 9);
  for (index_t v = 0; v < g.n; ++v) {
    for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      EXPECT_NE(g.adj[p], v);
    }
  }
  // Center vertex of the 3x3 grid has degree 4.
  EXPECT_EQ(g.degree(4), 4);
}

TEST(Graph, BfsLevelsOnPath) {
  // 1D chain: levels are distances.
  const Csr a = grid2d_laplacian(6, 1);
  const AdjacencyGraph g = build_adjacency(a);
  const BfsResult r = bfs(g, 0);
  for (index_t v = 0; v < 6; ++v) EXPECT_EQ(r.level[v], v);
}

TEST(Graph, PseudoPeripheralOnChainIsEndpoint) {
  const Csr a = grid2d_laplacian(9, 1);
  const AdjacencyGraph g = build_adjacency(a);
  const index_t v = pseudo_peripheral(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

// Bandwidth of the permuted matrix: RCM should shrink it on shuffled
// banded structure.
index_t bandwidth(const Csr& a) {
  index_t bw = 0;
  for (index_t r = 0; r < a.n_rows; ++r) {
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      bw = std::max(bw, std::abs(a.col_idx[p] - r));
    }
  }
  return bw;
}

TEST(Rcm, ReducesBandwidthOfShuffledGrid) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 1);
  // Shuffle with a random permutation first.
  Permutation shuffle = identity_permutation(a.n_rows);
  Rng rng(99);
  for (index_t i = a.n_rows - 1; i > 0; --i) {
    std::swap(shuffle[i], shuffle[rng.index_in(0, i)]);
  }
  const Csr shuffled = apply_symmetric_permutation(a, shuffle);
  const Csr rcm = apply_symmetric_permutation(shuffled, rcm_order(shuffled));
  EXPECT_LT(bandwidth(rcm), bandwidth(shuffled) / 2);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Block-diagonal: two disjoint grids.
  Coo c;
  const Csr g1 = grid2d_laplacian(4, 4);
  c.n_rows = c.n_cols = 32;
  for (index_t r = 0; r < 16; ++r) {
    for (offset_t p = g1.row_ptr[r]; p < g1.row_ptr[r + 1]; ++p) {
      c.add(r, g1.col_idx[p], g1.values[p]);
      c.add(r + 16, g1.col_idx[p] + 16, g1.values[p]);
    }
  }
  const Csr a = coo_to_csr(c);
  EXPECT_TRUE(is_valid_permutation(rcm_order(a)));
  EXPECT_TRUE(is_valid_permutation(min_degree_order(a)));
  EXPECT_TRUE(is_valid_permutation(nested_dissection_order(a)));
}

offset_t fill_nnz(const Csr& a, const Permutation& p) {
  return symbolic_fill(apply_symmetric_permutation(a, p)).nnz_l();
}

TEST(MinDegree, ReducesFillVsNatural) {
  const Csr a = finalize_system(grid2d_laplacian(14, 14), 4);
  const offset_t natural = fill_nnz(a, identity_permutation(a.n_rows));
  const offset_t md = fill_nnz(a, min_degree_order(a));
  EXPECT_LT(md, natural);
}

TEST(NestedDissection, ReducesFillVsNaturalOnGrid) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 4);
  const offset_t natural = fill_nnz(a, identity_permutation(a.n_rows));
  const offset_t nd = fill_nnz(a, nested_dissection_order(a));
  EXPECT_LT(nd, natural);
}

TEST(Orderings, AllValidOnIrregularMatrix) {
  const Csr a = finalize_system(circuit_like(300, 2.5, 3, 17), 17);
  for (Ordering o : {Ordering::kNatural, Ordering::kRcm,
                     Ordering::kMinDegree, Ordering::kNestedDissection}) {
    EXPECT_TRUE(is_valid_permutation(compute_ordering(a, o)))
        << ordering_name(o);
  }
}

// ---- Indexed-heap minimum degree vs the lazy-deletion heap ----------------

// Test-local copy of the former min_degree_order: a lazy-deletion
// std::priority_queue that pushes a fresh (degree, version, vertex) entry on
// every degree refresh and skips stale ones on pop. The production indexed
// heap must reproduce its permutation exactly.
Permutation lazy_heap_min_degree_order(const Csr& a) {
  struct HeapItem {
    index_t degree;
    index_t version;
    index_t vertex;
    bool operator>(const HeapItem& o) const {
      if (degree != o.degree) return degree > o.degree;
      return vertex > o.vertex;
    }
  };
  const AdjacencyGraph g = build_adjacency(a);
  const index_t n = g.n;
  std::vector<std::vector<index_t>> var_adj(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    var_adj[v].assign(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
  std::vector<std::vector<index_t>> var_elems(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elem_verts;
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<index_t> version(static_cast<std::size_t>(n), 0);
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  auto compute_degree = [&](index_t v) -> index_t {
    offset_t deg = static_cast<offset_t>(var_adj[v].size());
    for (index_t e : var_elems[v]) {
      deg += static_cast<offset_t>(elem_verts[e].size()) - 1;
    }
    return static_cast<index_t>(std::min<offset_t>(deg, n - 1));
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (index_t v = 0; v < n; ++v) heap.push({compute_degree(v), 0, v});
  Permutation order;
  while (!heap.empty()) {
    const HeapItem top = heap.top();
    heap.pop();
    const index_t v = top.vertex;
    if (eliminated[v] || top.version != version[v]) continue;
    eliminated[v] = 1;
    order.push_back(v);
    std::vector<index_t> boundary;
    auto touch = [&](index_t u) {
      if (u == v || eliminated[u] || mark[u]) return;
      mark[u] = 1;
      boundary.push_back(u);
    };
    for (index_t u : var_adj[v]) touch(u);
    for (index_t e : var_elems[v]) {
      for (index_t u : elem_verts[e]) touch(u);
    }
    for (index_t u : boundary) mark[u] = 0;
    const auto e_new = static_cast<index_t>(elem_verts.size());
    const std::vector<index_t> absorbed = var_elems[v];
    for (index_t u : boundary) mark[u] = 1;
    mark[v] = 1;
    for (index_t u : boundary) {
      auto& adj = var_adj[u];
      adj.erase(std::remove_if(adj.begin(), adj.end(),
                               [&](index_t w) { return mark[w] != 0; }),
                adj.end());
      auto& elems = var_elems[u];
      elems.erase(std::remove_if(elems.begin(), elems.end(),
                                 [&](index_t e) {
                                   return std::find(absorbed.begin(),
                                                    absorbed.end(),
                                                    e) != absorbed.end();
                                 }),
                  elems.end());
      elems.push_back(e_new);
    }
    for (index_t u : boundary) mark[u] = 0;
    mark[v] = 0;
    for (index_t e : absorbed) elem_verts[e].clear();
    elem_verts.push_back(boundary);
    var_adj[v].clear();
    var_elems[v].clear();
    for (index_t u : elem_verts[e_new]) {
      ++version[u];
      heap.push({compute_degree(u), version[u], u});
    }
  }
  return order;
}

void expect_same_order(const Csr& a, const std::string& what) {
  const Permutation got = min_degree_order(a);
  EXPECT_TRUE(is_valid_permutation(got)) << what;
  EXPECT_EQ(got, lazy_heap_min_degree_order(a)) << what;
}

Csr pattern_matrix(index_t n,
                   const std::vector<std::pair<index_t, index_t>>& edges) {
  Coo c;
  c.n_rows = c.n_cols = n;
  for (index_t i = 0; i < n; ++i) c.add(i, i, 4.0);
  for (const auto& [r, col] : edges) c.add(r, col, -1.0);
  return coo_to_csr(c);
}

TEST(MinDegree, IndexedHeapMatchesLazyHeapOnPaperStandIns) {
  for (const PaperMatrix& m : paper_matrices()) {
    expect_same_order(m.make(), m.name);
  }
}

TEST(MinDegree, IndexedHeapMatchesLazyHeapOnGridAndSuiteSample) {
  expect_same_order(finalize_system(grid2d_laplacian(120, 120), 1),
                    "grid2d 120x120");
  const std::vector<SuiteEntry>& suite = matrix_suite();
  Rng rng(20261019);
  for (int k = 0; k < 8; ++k) {
    const SuiteEntry& e =
        suite[rng.next_below(static_cast<std::uint64_t>(suite.size()))];
    expect_same_order(make_suite_matrix(e), e.name);
  }
}

TEST(MinDegree, IndexedHeapMatchesLazyHeapOnEdgeCases) {
  expect_same_order(pattern_matrix(0, {}), "n=0");
  expect_same_order(pattern_matrix(1, {}), "n=1");
  expect_same_order(pattern_matrix(9, {}), "diagonal only");
  // Three components: a path, a star and an isolated vertex, interleaved
  // in the numbering so ties cross component boundaries.
  expect_same_order(
      pattern_matrix(10, {{0, 3}, {3, 6}, {6, 9}, {1, 4}, {1, 7}, {1, 8}}),
      "disconnected components");
  // One dense row (and, after symmetrization, column) over a sparse chain.
  std::vector<std::pair<index_t, index_t>> dense;
  for (index_t j = 1; j < 40; ++j) dense.push_back({0, j});
  for (index_t j = 1; j + 1 < 40; j += 2) dense.push_back({j, j + 1});
  expect_same_order(pattern_matrix(40, dense), "one dense row");
  // Unsymmetric pattern: upper entries only.
  expect_same_order(pattern_matrix(6, {{0, 5}, {1, 2}, {2, 4}, {3, 5}}),
                    "one-sided pattern");
}

}  // namespace
}  // namespace th
