#include "core/task_graph.hpp"

#include <algorithm>
#include <queue>

#include "support/error.hpp"

namespace th {

const char* task_type_name(TaskType t) {
  switch (t) {
    case TaskType::kGetrf:
      return "GETRF";
    case TaskType::kTstrf:
      return "TSTRF";
    case TaskType::kGeesm:
      return "GEESM";
    case TaskType::kSsssm:
      return "SSSSM";
  }
  return "?";
}

index_t TaskGraph::add_task(Task t) {
  TH_CHECK(!finalized_);
  t.id = static_cast<index_t>(tasks_.size());
  tasks_.push_back(t);
  return t.id;
}

void TaskGraph::add_dependency(index_t producer, index_t consumer) {
  TH_CHECK(!finalized_);
  TH_CHECK_MSG(producer != consumer, "self-dependency on task " << producer);
  TH_CHECK(producer >= 0 && producer < size());
  TH_CHECK(consumer >= 0 && consumer < size());
  edges_.push_back({producer, consumer});
}

void TaskGraph::finalize() {
  TH_CHECK(!finalized_);
  const index_t n = size();

  // Successors: bucket the edges by producer (counting sort), then sort and
  // dedupe each producer's short run in place, compacting as we go.
  succ_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [p, c] : edges_) ++succ_ptr_[p + 1];
  for (index_t i = 0; i < n; ++i) succ_ptr_[i + 1] += succ_ptr_[i];
  succ_.resize(edges_.size());
  {
    std::vector<offset_t> cur(succ_ptr_.begin(), succ_ptr_.end() - 1);
    for (const auto& [p, c] : edges_) succ_[cur[p]++] = c;
  }
  offset_t kept = 0;
  for (index_t t = 0; t < n; ++t) {
    const auto first = succ_.begin() + succ_ptr_[t];
    const auto last = succ_.begin() + succ_ptr_[t + 1];
    std::sort(first, last);
    const auto end = std::unique(first, last);
    succ_ptr_[t] = kept;
    for (auto it = first; it != end; ++it) succ_[kept++] = *it;
  }
  succ_ptr_[n] = kept;
  succ_.resize(static_cast<std::size_t>(kept));

  // Predecessors: one scan in producer order appends each producer to its
  // consumers' lists, so every list comes out ascending.
  pred_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const index_t c : succ_) ++pred_ptr_[c + 1];
  for (index_t i = 0; i < n; ++i) pred_ptr_[i + 1] += pred_ptr_[i];
  pred_.resize(succ_.size());
  {
    std::vector<offset_t> cur(pred_ptr_.begin(), pred_ptr_.end() - 1);
    for (index_t p = 0; p < n; ++p) {
      for (offset_t q = succ_ptr_[p]; q < succ_ptr_[p + 1]; ++q) {
        pred_[cur[succ_[q]]++] = p;
      }
    }
  }
  in_degree_.assign(static_cast<std::size_t>(n), 0);
  for (index_t t = 0; t < n; ++t) {
    in_degree_[t] = static_cast<index_t>(pred_ptr_[t + 1] - pred_ptr_[t]);
  }

  // Kahn's algorithm both validates acyclicity and computes ASAP levels.
  levels_.assign(static_cast<std::size_t>(n), 0);
  std::vector<index_t> deg = in_degree_;
  std::queue<index_t> q;
  for (index_t t = 0; t < n; ++t) {
    if (deg[t] == 0) q.push(t);
  }
  index_t seen = 0;
  while (!q.empty()) {
    const index_t t = q.front();
    q.pop();
    ++seen;
    for (offset_t p = succ_ptr_[t]; p < succ_ptr_[t + 1]; ++p) {
      const index_t s = succ_[p];
      levels_[s] = std::max(levels_[s], levels_[t] + 1);
      if (--deg[s] == 0) q.push(s);
    }
  }
  TH_CHECK_MSG(seen == n, "task graph has a cycle (" << n - seen
                                                     << " tasks unreachable)");
  // The CSR arrays now hold every edge; nothing reads the list again.
  std::vector<std::pair<index_t, index_t>>().swap(edges_);
  finalized_ = true;
}

std::pair<const index_t*, const index_t*> TaskGraph::successors(
    index_t id) const {
  TH_CHECK(finalized_);
  return {succ_.data() + succ_ptr_[id], succ_.data() + succ_ptr_[id + 1]};
}

std::pair<const index_t*, const index_t*> TaskGraph::predecessors(
    index_t id) const {
  TH_CHECK(finalized_);
  return {pred_.data() + pred_ptr_[id], pred_.data() + pred_ptr_[id + 1]};
}

const std::vector<index_t>& TaskGraph::levels() const {
  TH_CHECK(finalized_);
  return levels_;
}

index_t TaskGraph::level_count() const {
  TH_CHECK(finalized_);
  index_t m = 0;
  for (index_t l : levels_) m = std::max(m, l);
  return size() > 0 ? m + 1 : 0;
}

std::vector<offset_t> TaskGraph::level_widths() const {
  std::vector<offset_t> w(static_cast<std::size_t>(level_count()), 0);
  for (index_t l : levels()) ++w[l];
  return w;
}

offset_t TaskGraph::total_flops() const {
  offset_t f = 0;
  for (const Task& t : tasks_) f += t.cost.flops;
  return f;
}

const std::vector<offset_t>& TaskGraph::upward_rank() const {
  TH_CHECK(finalized_);
  if (upward_rank_.empty() && size() > 0) {
    // Process in reverse topological order. ASAP levels give one: a task's
    // successors always have strictly larger levels, so sorting by level
    // descending is a valid reverse topological order.
    std::vector<index_t> order(static_cast<std::size_t>(size()));
    for (index_t i = 0; i < size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return levels_[a] > levels_[b];
    });
    upward_rank_.assign(static_cast<std::size_t>(size()), 0);
    for (const index_t t : order) {
      offset_t best = 0;
      for (offset_t p = succ_ptr_[t]; p < succ_ptr_[t + 1]; ++p) {
        best = std::max(best, upward_rank_[succ_[p]]);
      }
      upward_rank_[t] = tasks_[t].cost.flops + best;
    }
  }
  return upward_rank_;
}

offset_t TaskGraph::critical_path_flops() const {
  offset_t best = 0;
  for (offset_t r : upward_rank()) best = std::max(best, r);
  return best;
}

}  // namespace th
