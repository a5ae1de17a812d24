// Container — Aggregate-stage module 2 (paper §3.3).
//
// A priority structure buffering deferrable tasks. pop() always returns the
// highest-priority (lowest key) stored task so low-priority work can never
// overtake urgent work when the Collector tops up a batch. The FIFO
// discipline ignores the keys and pops in arrival order; the ablation bench
// swaps it in to quantify the heap's contribution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "core/prioritizer.hpp"
#include "support/error.hpp"

namespace th {

class Container {
 public:
  enum class Discipline { kHeap, kFifo };

  explicit Container(Discipline d = Discipline::kHeap) : discipline_(d) {}

  /// Store a task under an explicit priority key (see Prioritizer::key).
  void push(std::uint64_t key, index_t id) {
    if (discipline_ == Discipline::kHeap) {
      heap_.push({key, id});
    } else {
      fifo_.push_back(id);
    }
    peak_ = std::max(peak_, size());
  }

  /// Convenience: store under the paper's default priority key.
  void push(const Task& t) { push(Prioritizer::priority_key(t), t.id); }

  /// Remove and return the id of the best stored task. Popping an empty
  /// Container is a programming error; callers test empty() first.
  index_t pop() {
    TH_CHECK_MSG(!empty(), "pop from empty Container");
    index_t id;
    if (discipline_ == Discipline::kHeap) {
      id = heap_.top().second;
      heap_.pop();
    } else {
      id = fifo_.front();
      fifo_.pop_front();
    }
    return id;
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() + fifo_.size(); }
  /// High-water mark of buffered tasks over the Container's lifetime —
  /// the "container depth" the obs layer reports per rank.
  std::size_t peak_size() const { return peak_; }

  Discipline discipline() const { return discipline_; }

 private:
  using Entry = std::pair<std::uint64_t, index_t>;  // (key, task id)
  Discipline discipline_;
  std::size_t peak_ = 0;
  // Exactly one of the two is ever populated, per discipline_.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::deque<index_t> fifo_;
};

}  // namespace th
