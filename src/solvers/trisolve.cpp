#include "solvers/trisolve.hpp"

#include <algorithm>

#include "exec/worker_pool.hpp"
#include "kernels/flops.hpp"
#include "support/error.hpp"

namespace th {

namespace {

// Task encoding within the solve DAGs:
//   kGetrf  -> diagonal substitution on block row t.k (row == col == k)
//   kSsssm  -> update x[t.row] -= T(t.row, t.col) * x[t.col]
constexpr TaskType kDiagSolve = TaskType::kGetrf;
constexpr TaskType kUpdate = TaskType::kSsssm;

}  // namespace

TaskGraph build_solve_graph(const PluFactorization& fact, bool forward,
                            index_t nrhs, const ProcessGrid& grid) {
  TH_CHECK(nrhs >= 1);
  const TilePattern& p = fact.pattern();
  const index_t nt = p.nt;
  TaskGraph g;

  // One diagonal substitution task per block row.
  std::vector<index_t> diag_id(static_cast<std::size_t>(nt));
  for (index_t k = 0; k < nt; ++k) {
    const index_t bk = p.rows_in_tile(k);
    Task t;
    t.type = kDiagSolve;
    t.k = k;
    t.row = t.col = k;
    t.cost.flops = static_cast<offset_t>(bk) * bk * nrhs;
    t.cost.bytes = words_to_bytes(static_cast<offset_t>(bk) * bk +
                                  2 * static_cast<offset_t>(bk) * nrhs);
    t.cost.cuda_blocks = std::max<index_t>(1, nrhs);
    t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
    t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * nrhs);
    t.owner_rank = grid.owner(k, k);
    diag_id[k] = g.add_task(t);
  }

  // One update task per off-diagonal tile of the triangle being solved,
  // feeding the destination block row's diagonal task.
  for (index_t k = 0; k < nt; ++k) {
    if (forward) {
      for (const index_t i : p.col_tiles_below(k)) {
        const index_t bi = p.rows_in_tile(i);
        const index_t bk = p.rows_in_tile(k);
        Task t;
        t.type = kUpdate;
        t.k = k;
        t.row = i;
        t.col = k;
        t.cost.flops = 2 * static_cast<offset_t>(bi) * bk * nrhs;
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bi) * bk +
                                      2 * static_cast<offset_t>(bi) * nrhs);
        t.cost.cuda_blocks = std::max<index_t>(1, bi / 16);
        t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * nrhs);
        t.atomic_ok = true;  // updates into block i commute
        t.owner_rank = grid.owner(i, k);
        const index_t id = g.add_task(t);
        g.add_dependency(diag_id[k], id);
        g.add_dependency(id, diag_id[i]);
      }
    } else {
      for (const index_t j : p.row_tiles_right(k)) {
        // Backward: x_k -= U(k, j) x_j, so the update targets block k and
        // depends on block j's diagonal task.
        const index_t bk = p.rows_in_tile(k);
        const index_t bj = p.rows_in_tile(j);
        Task t;
        t.type = kUpdate;
        t.k = j;
        t.row = k;
        t.col = j;
        t.cost.flops = 2 * static_cast<offset_t>(bk) * bj * nrhs;
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bk) * bj +
                                      2 * static_cast<offset_t>(bk) * nrhs);
        t.cost.cuda_blocks = std::max<index_t>(1, bk / 16);
        t.cost.shmem_per_block = static_cast<offset_t>(bj) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * nrhs);
        t.atomic_ok = true;
        t.owner_rank = grid.owner(k, j);
        const index_t id = g.add_task(t);
        g.add_dependency(diag_id[j], id);
        g.add_dependency(id, diag_id[k]);
      }
    }
  }
  g.finalize();
  return g;
}

SolveFoldPlan build_solve_fold_plan(const TilePattern& p, bool forward) {
  SolveFoldPlan plan;
  plan.forward = forward;
  plan.fold_cols.assign(static_cast<std::size_t>(p.nt), {});
  for (index_t k = 0; k < p.nt; ++k) {
    if (forward) {
      for (const index_t i : p.col_tiles_below(k)) {
        plan.tile_offset.emplace(std::make_pair(i, k), plan.scratch_rows);
        plan.scratch_rows += p.rows_in_tile(i);
        // Outer loop ascends k, so each row's fold list is ascending — the
        // order the sequential reference subtracts the panels in.
        plan.fold_cols[static_cast<std::size_t>(i)].push_back(k);
      }
    } else {
      for (const index_t j : p.row_tiles_right(k)) {
        plan.tile_offset.emplace(std::make_pair(k, j), plan.scratch_rows);
        plan.scratch_rows += p.rows_in_tile(k);
        plan.fold_cols[static_cast<std::size_t>(k)].push_back(j);
      }
    }
  }
  return plan;
}

int exec_lanes(const ExecOptions& exec) {
  return exec.pool != nullptr ? exec.pool->width() : exec.workers;
}

TriSolveBackend::TriSolveBackend(const PluFactorization& fact, real_t* x,
                                 index_t nrhs, bool forward, int lanes,
                                 const SolveFoldPlan* fold)
    : fact_(fact),
      x_(x),
      nrhs_(nrhs),
      forward_(forward),
      update_(fold != nullptr ? SolveUpdate::kAccumulate
              : lanes > 1     ? SolveUpdate::kAtomicSubtract
                              : SolveUpdate::kSubtract),
      fold_(fold) {
  TH_CHECK_MSG(lanes >= 1, "solve backend needs >= 1 lane, got " << lanes);
  if (fold_ != nullptr) {
    TH_CHECK_MSG(fold_->forward == forward,
                 "solve fold plan direction does not match the backend");
    scratch_.assign(
        static_cast<std::size_t>(fold_->scratch_rows) * nrhs_, 0.0);
  }
}

void TriSolveBackend::run_task(const Task& t, bool /*atomic*/) {
  const index_t bs = fact_.pattern().tile_size;
  const index_t n = fact_.pattern().n;
  if (t.type == kDiagSolve) {
    const Tile& d = *fact_.tiles().tile(t.k, t.k);
    const index_t w = d.rows();
    real_t* xk = x_ + static_cast<offset_t>(t.k) * bs;
    if (fold_ != nullptr) {
      // Deterministic mode: fold the incoming update contributions in
      // ascending source-block order before substituting. Every producer
      // task finished before this one (DAG dependency), and the executor's
      // batch barriers order their scratch writes before this read.
      for (const index_t src :
           fold_->fold_cols[static_cast<std::size_t>(t.k)]) {
        const offset_t off = fold_->tile_offset.at(std::make_pair(t.k, src));
        const real_t* scr = scratch_.data() + off * nrhs_;
        for (index_t r = 0; r < nrhs_; ++r) {
          real_t* col = xk + static_cast<offset_t>(r) * n;
          const real_t* s = scr + static_cast<offset_t>(r) * w;
          for (index_t i = 0; i < w; ++i) col[i] -= s[i];
        }
      }
    }
    for (index_t r = 0; r < nrhs_; ++r) {
      real_t* col = xk + static_cast<offset_t>(r) * n;
      if (forward_) {
        // Unit-lower substitution within the diagonal tile.
        for (index_t c = 0; c < w; ++c) {
          const real_t xc = col[c];
          if (xc == 0.0) continue;
          for (index_t i = c + 1; i < w; ++i) {
            col[i] -= d.dense_data()[i + static_cast<offset_t>(c) * w] * xc;
          }
        }
      } else {
        // Non-unit upper substitution.
        for (index_t c = w - 1; c >= 0; --c) {
          real_t acc = col[c];
          for (index_t i = c + 1; i < w; ++i) {
            acc -= d.dense_data()[c + static_cast<offset_t>(i) * w] * col[i];
          }
          col[c] = acc / d.dense_data()[c + static_cast<offset_t>(c) * w];
        }
      }
    }
    return;
  }
  // x[row] -= T(row, col) * x[col], over T's nonzero index.
  const Tile& tile = *fact_.tiles().tile(t.row, t.col);
  const real_t* xc = x_ + static_cast<offset_t>(t.col) * bs;
  if (fold_ != nullptr) {
    // Accumulate the positive contribution T(row, col) * x[col] into the
    // tile's private scratch region (bi x nrhs, column-major); the
    // diagonal task subtracts it later in plan order. Regions are disjoint
    // across tasks, so no atomics are needed.
    const offset_t off = fold_->tile_offset.at(std::make_pair(t.row, t.col));
    tile_solve_update(tile, update_, xc, n, scratch_.data() + off * nrhs_,
                      tile.rows(), nrhs_);
    return;
  }
  // Solve updates conflict on the target block *row* (x[row]), not on the
  // (row, col) key the factorisation scheduler uses for SSSSM conflict
  // detection, so the executor cannot flag them: on more than one lane
  // every update accumulates atomically. On one lane nothing runs
  // concurrently and the update writes in place — x - t*v rounds exactly
  // like the CAS loop's x + (-(t*v)), and the lone lane fixes the order.
  tile_solve_update(tile, update_, xc, n,
                    x_ + static_cast<offset_t>(t.row) * bs, n, nrhs_);
}

PluTriangularSolver::PluTriangularSolver(const PluFactorization& fact,
                                         index_t nrhs,
                                         const ProcessGrid& grid)
    : fact_(fact), nrhs_(nrhs) {
  TH_CHECK(nrhs >= 1);
  forward_ = build_solve_graph(fact, /*forward=*/true, nrhs, grid);
  backward_ = build_solve_graph(fact, /*forward=*/false, nrhs, grid);
}

TriSolveResult PluTriangularSolver::solve(const real_t* b, real_t* x,
                                          const ScheduleOptions& opt) {
  TH_CHECK_MSG(b != nullptr && x != nullptr, "solve needs b and x storage");
  const index_t n = fact_.pattern().n;
  if (x != b) {
    std::copy(b, b + static_cast<offset_t>(n) * nrhs_, x);
  }

  const bool det = opt.exec.accum == exec::AccumMode::kDeterministic;
  ScheduleOptions run = opt;
  // The backend owns determinism (fold plan); the executor's own det-mode
  // scratch keys on the factorisation's conflict structure and would only
  // serialise updates in the ordered epilogue.
  run.exec.accum = exec::AccumMode::kAtomic;
  if (det && !forward_fold_) {
    forward_fold_ = build_solve_fold_plan(fact_.pattern(), /*forward=*/true);
    backward_fold_ =
        build_solve_fold_plan(fact_.pattern(), /*forward=*/false);
  }

  const int lanes = exec_lanes(run.exec);
  TriSolveResult out;
  {
    TriSolveBackend backend(fact_, x, nrhs_, /*forward=*/true, lanes,
                            det ? &*forward_fold_ : nullptr);
    out.forward = simulate(forward_, run, &backend);
  }
  {
    TriSolveBackend backend(fact_, x, nrhs_, /*forward=*/false, lanes,
                            det ? &*backward_fold_ : nullptr);
    out.backward = simulate(backward_, run, &backend);
  }
  return out;
}

}  // namespace th
