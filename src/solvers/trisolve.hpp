// Parallel sparse triangular solve (SpTRSV) over the PLU tile structure.
//
// The solve phase generates the same fine-grained, dependency-laden task
// soup as factorisation (the paper's related-work section calls SpTRSV out
// as an essential component), so it benefits from the same
// aggregate-and-batch treatment. This module builds forward (L x = b) and
// backward (U x = y) task DAGs over the factored tiles — one diagonal
// substitution task per block row plus one update task per off-diagonal
// tile — and executes them through the standard scheduler, supporting
// multiple right-hand sides solved as one block.
//
// SpTRSV is first-class here: the serving stack's hot path under
// factor-once/solve-many load is this module (src/rhs batches tenant
// right-hand sides into block solves over these DAGs, DESIGN.md §15), and
// bench/ext_rhs_throughput gates its throughput scaling.
//
// Every update task walks its factor tile's nonzero index
// (tile_solve_update, kernels/tile.hpp) rather than the dense tile.
//
// Accumulation modes. Update tasks into one block row commute; the
// paper-faithful path accumulates them with atomic adds, whose FP ordering
// varies with the schedule and worker count — on one executor lane they
// write in place, which rounds the same (DESIGN.md §15). When the caller
// asks for deterministic accumulation (ScheduleOptions::exec.accum ==
// det), the backend instead gives every update task a private scratch
// region and the consuming diagonal task folds the contributions in
// ascending source-block order before substituting — bit-identical results
// across thread counts, batch widths and scheduling policies.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "solvers/plu.hpp"

namespace th {

/// Build the forward (L, lower triangle) or backward (U, upper triangle)
/// solve task DAG for a block solve of `nrhs` right-hand sides. Task
/// encoding: kGetrf = diagonal substitution on block row k, kSsssm =
/// x[row] -= T(row, col) * x[col] (reusing the factorisation task types
/// keeps the scheduler unchanged). Structure and costs depend only on the
/// tile pattern, so the graph is valid before the numeric phase and a
/// timing-only simulate() of it prices a solve without touching tiles.
TaskGraph build_solve_graph(const PluFactorization& fact, bool forward,
                            index_t nrhs, const ProcessGrid& grid = {});

/// Deterministic-accumulation plan for one solve direction: a private
/// scratch slot per off-diagonal tile (update task) and, per block row,
/// the ascending source-block fold order its diagonal task applies. Built
/// from the tile pattern alone; independent of nrhs (offsets are in rows —
/// a tile's element region is [row_offset * nrhs, (row_offset + bi) * nrhs)).
struct SolveFoldPlan {
  /// (target block row, source block col) -> scratch row offset.
  std::map<std::pair<index_t, index_t>, offset_t> tile_offset;
  /// Per block row, the source block columns folded before substitution,
  /// ascending — the same order the sequential reference visits them.
  std::vector<std::vector<index_t>> fold_cols;
  offset_t scratch_rows = 0;
  bool forward = true;
};

SolveFoldPlan build_solve_fold_plan(const TilePattern& pattern, bool forward);

/// Executor lanes a run under these options uses: the shared pool's
/// width, or `workers` when the run spawns its own pool.
int exec_lanes(const ExecOptions& exec);

/// Numeric backend for one solve direction over a caller-owned block of
/// right-hand sides: `x` is n x nrhs column-major in the permuted
/// ordering, solved in place. Every update walks its factor tile's nonzero
/// index (tile_solve_update). Without a fold plan, updates write into x:
/// atomically when `lanes` > 1 — conflicts key on the target block *row*,
/// not the (row, col) key the factorisation scheduler uses, so the
/// executor cannot flag them — and in place on one lane, where nothing
/// runs concurrently. `lanes` is the executor's lane count for the run
/// (exec_lanes). With a fold plan, updates fill private scratch and
/// diagonal tasks fold them in plan order — deterministic mode.
class TriSolveBackend : public NumericBackend {
 public:
  TriSolveBackend(const PluFactorization& fact, real_t* x, index_t nrhs,
                  bool forward, int lanes,
                  const SolveFoldPlan* fold = nullptr);

  void run_task(const Task& t, bool atomic) override;

 private:
  const PluFactorization& fact_;
  real_t* x_;
  index_t nrhs_;
  bool forward_;
  SolveUpdate update_;  // how update tasks apply their tile
  const SolveFoldPlan* fold_;
  std::vector<real_t> scratch_;  // fold mode: scratch_rows * nrhs, zeroed
};

/// Result of a scheduled triangular-solve phase. The solution stays in the
/// caller's buffer — no vectors ride along on the hot path.
struct TriSolveResult {
  ScheduleResult forward;   // L-solve schedule
  ScheduleResult backward;  // U-solve schedule

  real_t makespan_s() const {
    return forward.makespan_s + backward.makespan_s;
  }
};

class PluTriangularSolver {
 public:
  /// `nrhs` right-hand sides are solved together; costs scale with nrhs.
  /// Graph construction needs only the symbolic pattern; solve() requires
  /// the numeric phase to have completed (tiles dense).
  PluTriangularSolver(const PluFactorization& fact, index_t nrhs,
                      const ProcessGrid& grid = {});

  const TaskGraph& forward_graph() const { return forward_; }
  const TaskGraph& backward_graph() const { return backward_; }

  /// Solve L U X = B under the given scheduling options. `b` and `x` are
  /// n x nrhs, column-major, in the permuted ordering; `x` is
  /// caller-provided storage and may alias `b` (in-place solve — no copy).
  /// opt.exec.accum == det selects the fold-plan backend (bit-identical
  /// across worker counts and batch widths); the scheduler itself then
  /// runs with atomic accumulation, since the backend owns determinism.
  TriSolveResult solve(const real_t* b, real_t* x, const ScheduleOptions& opt);

 private:
  const PluFactorization& fact_;
  index_t nrhs_;
  TaskGraph forward_;
  TaskGraph backward_;
  std::optional<SolveFoldPlan> forward_fold_;   // built on first det solve
  std::optional<SolveFoldPlan> backward_fold_;
};

}  // namespace th
