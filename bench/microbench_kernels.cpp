// Google-benchmark microbenchmarks of the host-side primitives: dense and
// sparse tile kernels, the BlockTaskMap dispatch, Container operations, the
// Collector admission path, and the analysis layer (minimum-degree ordering
// and task-graph finalize). These measure the *real* host cost of the
// building blocks (unlike the figure benches, which report modelled GPU
// time).
#include <benchmark/benchmark.h>

#include "core/collector.hpp"
#include "core/container.hpp"
#include "core/executor.hpp"
#include "core/task_graph.hpp"
#include "gen/generators.hpp"
#include "gen/registry.hpp"
#include "kernels/dense.hpp"
#include "kernels/simd.hpp"
#include "kernels/tile.hpp"
#include "order/reorder.hpp"
#include "support/rng.hpp"
#include "symbolic/tiles.hpp"

namespace th {
namespace {

std::vector<real_t> random_matrix(index_t n, Rng& rng, bool dd) {
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  if (dd) {
    for (index_t i = 0; i < n; ++i) {
      a[i + static_cast<std::size_t>(i) * n] += n + 1;
    }
  }
  return a;
}

void BM_GetrfNopiv(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  Rng rng(1);
  const std::vector<real_t> a0 = random_matrix(n, rng, true);
  for (auto _ : state) {
    std::vector<real_t> a = a0;
    getrf_nopiv(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n / 3);
}
BENCHMARK(BM_GetrfNopiv)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmMinus(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  Rng rng(2);
  const std::vector<real_t> a = random_matrix(n, rng, false);
  const std::vector<real_t> b = random_matrix(n, rng, false);
  std::vector<real_t> c = random_matrix(n, rng, false);
  for (auto _ : state) {
    gemm_minus(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmMinus)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// SSSSM as the PLU core runs it: dense L (a TSTRF output), U stored dense
// but 0.7% nonzero (the measured share of a factored grid2d U tile), read
// through its nonzero index. Arg 1 selects atomic accumulation. Items are
// the executed flops, 2 * m per indexed U entry.
void BM_IndexedSsssm(benchmark::State& state) {
  const index_t n = 64;
  const bool atomic = state.range(0) != 0;
  Rng rng(4);
  Tile l(n, n);
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) l.insert(r, cc, rng.uniform(-1, 1));
  }
  l.freeze();
  l.densify();
  Tile u(n, n);
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) {
      if (rng.next_real() < 0.007) u.insert(r, cc, rng.uniform(-1, 1));
    }
  }
  u.freeze();
  u.densify();
  u.index_nonzeros();
  Tile c(n, n);
  c.insert(0, 0, 1.0);
  c.freeze();
  c.densify();
  for (auto _ : state) {
    tile_ssssm_cols(c.dense_data(), c.ld(), l, u, atomic, 0, n);
    benchmark::DoNotOptimize(c.dense_data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n *
                          u.nz_indexed_count());
}
BENCHMARK(BM_IndexedSsssm)->Arg(0)->Arg(1);

// Indexing one cache-hot 64x64 factor tile (10% nonzero): the runtime-
// dispatched nonzero_mask (arg 1) against the portable scalar loop (arg
// 0). Items are tile entries.
void BM_NonzeroMask(benchmark::State& state) {
  const index_t n = 64;
  const bool dispatched = state.range(0) != 0;
  Rng rng(7);
  std::vector<real_t> t(static_cast<std::size_t>(n) * n, 0.0);
  for (real_t& v : t) {
    if (rng.next_real() < 0.1) v = rng.uniform(-1, 1);
  }
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(n));
  for (auto _ : state) {
    for (index_t c = 0; c < n; ++c) {
      const real_t* col = t.data() + static_cast<std::size_t>(c) * n;
      bits[static_cast<std::size_t>(c)] =
          dispatched ? simd::nonzero_mask(n, col)
                     : simd::detail::nonzero_mask_portable(n, col);
    }
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NonzeroMask)->Arg(0)->Arg(1);

// One solve update x_out -= T x_in through the tile's nonzero index, T a
// 64x64 factor tile 5% nonzero, for arg right-hand sides. Items are the
// dense tile entries a scan would have visited per right-hand side.
void BM_SolveUpdate(benchmark::State& state) {
  const index_t n = 64;
  const auto nrhs = static_cast<index_t>(state.range(0));
  Rng rng(8);
  Tile t(n, n);
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) {
      if (rng.next_real() < 0.05) t.insert(r, cc, rng.uniform(-1, 1));
    }
  }
  t.freeze();
  t.densify();
  t.index_nonzeros();
  std::vector<real_t> in(static_cast<std::size_t>(n) * nrhs);
  for (real_t& v : in) v = rng.uniform(-1, 1);
  std::vector<real_t> out(in.size(), 1.0);
  for (auto _ : state) {
    tile_solve_update(t, SolveUpdate::kSubtract, in.data(), n, out.data(), n,
                      nrhs);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * nrhs);
}
BENCHMARK(BM_SolveUpdate)->Arg(1)->Arg(16);

void BM_BlockTaskMapLookup(benchmark::State& state) {
  const auto tasks = static_cast<index_t>(state.range(0));
  std::vector<Task> storage(static_cast<std::size_t>(tasks));
  std::vector<const Task*> batch;
  Rng rng(5);
  for (index_t i = 0; i < tasks; ++i) {
    storage[i].cost.cuda_blocks = rng.index_in(1, 64);
    batch.push_back(&storage[i]);
  }
  const exec::BlockMap map = exec::BlockMap::from_tasks(batch);
  index_t block = 0;
  for (auto _ : state) {
    block = (block + 97) % map.total_blocks();
    benchmark::DoNotOptimize(map.task_of_block(block));
  }
}
BENCHMARK(BM_BlockTaskMapLookup)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ContainerPushPop(benchmark::State& state) {
  Rng rng(6);
  std::vector<Task> tasks(1024);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = static_cast<index_t>(i);
    tasks[i].row = rng.index_in(0, 63);
    tasks[i].col = rng.index_in(0, 63);
  }
  for (auto _ : state) {
    Container c;
    for (const Task& t : tasks) c.push(t);
    while (!c.empty()) benchmark::DoNotOptimize(c.pop());
  }
  state.SetItemsProcessed(state.iterations() * tasks.size());
}
BENCHMARK(BM_ContainerPushPop);

void BM_CollectorAdmission(benchmark::State& state) {
  std::vector<Task> tasks(4096);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = static_cast<index_t>(i);
    tasks[i].cost.cuda_blocks = 8;
    tasks[i].cost.shmem_per_block = 1024;
  }
  const DeviceSpec dev;
  for (auto _ : state) {
    Collector c(dev);
    for (const Task& t : tasks) {
      if (!c.try_add(t)) break;
    }
    benchmark::DoNotOptimize(c.take());
  }
}
BENCHMARK(BM_CollectorAdmission);

// Minimum-degree ordering of a paper stand-in. Arg 0: Ga41As41H72
// (n=2,500, the costliest stand-in to order), 1: c-71.
void BM_MinDegreeOrder(benchmark::State& state) {
  const char* name = state.range(0) == 0 ? "Ga41As41H72" : "c-71";
  const Csr a = paper_matrix(name).make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_degree_order(a).data());
  }
  state.SetLabel(name);
  state.SetItemsProcessed(state.iterations() * a.n_rows);
}
BENCHMARK(BM_MinDegreeOrder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// TaskGraph::finalize on the PLU core's DAG of grid2d 120x120 (min-degree,
// tiles of Arg): the tasks and edges are added in the PLU builder's order,
// untimed, then finalize() is timed alone. Items are edges added.
void BM_TaskGraphFinalize(benchmark::State& state) {
  const auto tile = static_cast<index_t>(state.range(0));
  const Csr a = finalize_system(grid2d_laplacian(120, 120), 1);
  const TilePattern p =
      tile_symbolic(apply_symmetric_permutation(a, min_degree_order(a)), tile);
  const index_t nt = p.nt;
  offset_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TaskGraph g;
    std::vector<index_t> cons(static_cast<std::size_t>(nt) * nt, -1);
    for (index_t k = 0; k < nt; ++k) {
      cons[static_cast<std::size_t>(k) * nt + k] = g.add_task(Task{});
      for (const index_t i : p.col_tiles_below(k)) {
        cons[static_cast<std::size_t>(i) * nt + k] = g.add_task(Task{});
      }
      for (const index_t j : p.row_tiles_right(k)) {
        cons[static_cast<std::size_t>(k) * nt + j] = g.add_task(Task{});
      }
    }
    edges = 0;
    for (index_t k = 0; k < nt; ++k) {
      const index_t f = cons[static_cast<std::size_t>(k) * nt + k];
      const std::vector<index_t> col = p.col_tiles_below(k);
      const std::vector<index_t> row = p.row_tiles_right(k);
      for (const index_t i : col) {
        g.add_dependency(f, cons[static_cast<std::size_t>(i) * nt + k]);
      }
      for (const index_t j : row) {
        g.add_dependency(f, cons[static_cast<std::size_t>(k) * nt + j]);
      }
      edges += static_cast<offset_t>(col.size() + row.size());
      for (const index_t i : col) {
        for (const index_t j : row) {
          const index_t s = g.add_task(Task{});
          g.add_dependency(cons[static_cast<std::size_t>(i) * nt + k], s);
          g.add_dependency(cons[static_cast<std::size_t>(k) * nt + j], s);
          g.add_dependency(s, cons[static_cast<std::size_t>(i) * nt + j]);
          edges += 3;
        }
      }
    }
    state.ResumeTiming();
    g.finalize();
    benchmark::DoNotOptimize(g.levels().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_TaskGraphFinalize)->Arg(128)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace th

BENCHMARK_MAIN();
