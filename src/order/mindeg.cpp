// Quotient-graph approximate minimum-degree ordering.
//
// Classic element-based formulation (George & Liu): eliminated vertices
// become *elements*; a variable's fill neighbourhood is the union of its
// remaining variable neighbours and the boundaries of its adjacent
// elements. Elements adjacent to the pivot are absorbed on elimination,
// which keeps memory proportional to the original graph plus frontier
// instead of the filled graph. Degrees use the AMD-style upper bound
// |A_v| + sum_e (|L_e| - 1) instead of the exact boundary union — the
// standard trade of slight ordering quality for near-linear runtime.
// Supervariable detection is omitted.
//
// The pivot queue is an indexed binary min-heap with one entry per live
// variable, keyed by (degree, vertex). Refreshing a degree moves the
// variable's entry in place, so the heap never holds stale entries. Keys
// are unique per vertex, so the pop sequence is fixed by the keys alone:
// the lowest degree first, ties to the lowest vertex id.
#include <algorithm>
#include <utility>
#include <vector>

#include "order/graph.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

namespace {

/// Binary min-heap over the vertices 0..n-1 keyed by (key[v], v), with
/// each vertex's heap position tracked so its key can change in place.
class IndexedMinHeap {
 public:
  /// Heapify all n vertices with the given keys.
  explicit IndexedMinHeap(std::vector<index_t> keys)
      : key_(std::move(keys)),
        heap_(key_.size()),
        pos_(key_.size()) {
    const auto n = static_cast<index_t>(key_.size());
    for (index_t v = 0; v < n; ++v) {
      heap_[v] = v;
      pos_[v] = v;
    }
    for (index_t i = n / 2 - 1; i >= 0; --i) sift_down(i);
  }

  bool empty() const { return heap_.empty(); }

  /// Remove and return the vertex with the smallest (key, vertex).
  index_t pop() {
    const index_t top = heap_.front();
    const index_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return top;
  }

  /// Set the key of a vertex still in the heap, raising or lowering it.
  void update(index_t v, index_t key) {
    const index_t old = key_[v];
    key_[v] = key;
    if (key < old) {
      sift_up(pos_[v]);
    } else if (key > old) {
      sift_down(pos_[v]);
    }
  }

 private:
  bool less(index_t a, index_t b) const {
    return key_[a] != key_[b] ? key_[a] < key_[b] : a < b;
  }
  void place(index_t i, index_t v) {
    heap_[i] = v;
    pos_[v] = i;
  }
  void sift_up(index_t i) {
    const index_t v = heap_[i];
    while (i > 0) {
      const index_t parent = (i - 1) / 2;
      if (!less(v, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }
  void sift_down(index_t i) {
    const auto n = static_cast<index_t>(heap_.size());
    const index_t v = heap_[i];
    for (;;) {
      index_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], v)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, v);
  }

  std::vector<index_t> key_;
  std::vector<index_t> heap_;
  std::vector<index_t> pos_;
};

}  // namespace

Permutation min_degree_order(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  const index_t n = g.n;

  std::vector<std::vector<index_t>> var_adj(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    var_adj[v].assign(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
  std::vector<std::vector<index_t>> var_elems(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elem_verts;  // indexed by element id
  elem_verts.reserve(static_cast<std::size_t>(n));
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  // absorbed_flag[e] != 0 while element e is being absorbed by the pivot.
  // Element ids are assigned one per elimination, so n slots suffice.
  std::vector<char> absorbed_flag(static_cast<std::size_t>(n), 0);

  // AMD-style approximate external degree: variable neighbours plus the
  // element boundary sizes (an upper bound on the true union).
  auto compute_degree = [&](index_t v) -> index_t {
    offset_t deg = static_cast<offset_t>(var_adj[v].size());
    for (index_t e : var_elems[v]) {
      deg += static_cast<offset_t>(elem_verts[e].size()) - 1;
    }
    return static_cast<index_t>(std::min<offset_t>(deg, n - 1));
  };

  std::vector<index_t> degree(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) degree[v] = compute_degree(v);
  IndexedMinHeap heap(std::move(degree));

  Permutation order;
  order.reserve(static_cast<std::size_t>(n));

  while (!heap.empty()) {
    const index_t v = heap.pop();
    eliminated[v] = 1;
    order.push_back(v);

    // Boundary of the new element: union of variable neighbours and
    // absorbed element boundaries, minus eliminated vertices.
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

    const auto e_new = static_cast<index_t>(elem_verts.size());
    const std::vector<index_t> absorbed = std::move(var_elems[v]);

    // Update every boundary variable: drop edges covered by the new
    // element, drop absorbed elements, attach e_new. The boundary is
    // still marked from the union above.
    for (index_t e : absorbed) absorbed_flag[e] = 1;
    mark[v] = 1;
    for (index_t u : boundary) {
      auto& adj = var_adj[u];
      adj.erase(std::remove_if(adj.begin(), adj.end(),
                               [&](index_t w) { return mark[w] != 0; }),
                adj.end());
      auto& elems = var_elems[u];
      elems.erase(std::remove_if(elems.begin(), elems.end(),
                                 [&](index_t e) {
                                   return absorbed_flag[e] != 0;
                                 }),
                  elems.end());
      elems.push_back(e_new);
    }
    for (index_t u : boundary) mark[u] = 0;
    mark[v] = 0;

    for (index_t e : absorbed) {
      absorbed_flag[e] = 0;
      elem_verts[e].clear();
      elem_verts[e].shrink_to_fit();
    }
    elem_verts.push_back(std::move(boundary));
    var_adj[v].clear();
    var_adj[v].shrink_to_fit();

    // Refresh degrees of the affected variables.
    for (index_t u : elem_verts[e_new]) heap.update(u, compute_degree(u));
  }

  TH_ASSERT(is_valid_permutation(order));
  return order;
}

}  // namespace th
