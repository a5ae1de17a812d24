#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "kernels/dense.hpp"
#include "kernels/flops.hpp"
#include "kernels/simd.hpp"
#include "kernels/tile.hpp"
#include "mem/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "solvers/trisolve.hpp"
#include "sparse/ops.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

// Reference column-major matrix multiply C = A * B.
std::vector<real_t> matmul(const std::vector<real_t>& a,
                           const std::vector<real_t>& b, index_t m, index_t k,
                           index_t n) {
  std::vector<real_t> c(static_cast<std::size_t>(m) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      for (index_t i = 0; i < m; ++i) {
        c[i + static_cast<std::size_t>(j) * m] +=
            a[i + static_cast<std::size_t>(p) * m] *
            b[p + static_cast<std::size_t>(j) * k];
      }
    }
  }
  return c;
}

std::vector<real_t> random_dd_matrix(index_t n, Rng& rng) {
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) {
    a[i + static_cast<std::size_t>(i) * n] += static_cast<real_t>(n) + 1;
  }
  return a;
}

TEST(DenseGetrf, ReconstructsMatrix) {
  Rng rng(5);
  const index_t n = 12;
  const std::vector<real_t> a0 = random_dd_matrix(n, rng);
  std::vector<real_t> lu = a0;
  getrf_nopiv(n, lu.data(), n);
  // Rebuild A = L * U from the packed factors.
  std::vector<real_t> l(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<real_t> u(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const real_t v = lu[i + static_cast<std::size_t>(j) * n];
      if (i > j) {
        l[i + static_cast<std::size_t>(j) * n] = v;
      } else {
        u[i + static_cast<std::size_t>(j) * n] = v;
      }
    }
    l[j + static_cast<std::size_t>(j) * n] = 1.0;
  }
  const std::vector<real_t> a1 = matmul(l, u, n, n, n);
  for (std::size_t i = 0; i < a0.size(); ++i) {
    EXPECT_NEAR(a1[i], a0[i], 1e-9);
  }
}

TEST(DenseGetrf, ZeroPivotThrows) {
  std::vector<real_t> a{0.0, 1.0, 1.0, 0.0};  // 2x2 antidiagonal
  EXPECT_THROW(getrf_nopiv(2, a.data(), 2), Error);
}

TEST(DenseTrsm, LowerLeftUnitSolves) {
  Rng rng(7);
  const index_t m = 9, n = 4;
  std::vector<real_t> l = random_dd_matrix(m, rng);
  // Zero the strict upper part; diagonal treated as unit (not read).
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i < j; ++i) l[i + static_cast<std::size_t>(j) * m] = 0;
    l[j + static_cast<std::size_t>(j) * m] = 1.0;
  }
  std::vector<real_t> x(static_cast<std::size_t>(m) * n);
  for (real_t& v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> b = matmul(l, x, m, m, n);
  std::vector<real_t> solved = b;
  trsm_lower_left_unit(m, n, l.data(), m, solved.data(), m);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(solved[i], x[i], 1e-9);
}

TEST(DenseTrsm, UpperRightSolves) {
  Rng rng(9);
  const index_t m = 5, n = 8;
  std::vector<real_t> u = random_dd_matrix(n, rng);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      u[i + static_cast<std::size_t>(j) * n] = 0;
    }
  }
  std::vector<real_t> x(static_cast<std::size_t>(m) * n);
  for (real_t& v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> b = matmul(x, u, m, n, n);
  std::vector<real_t> solved = b;
  trsm_upper_right(m, n, u.data(), n, solved.data(), m);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(solved[i], x[i], 1e-9);
}

TEST(DenseGemm, MinusMatchesReference) {
  Rng rng(11);
  const index_t m = 6, k = 5, n = 7;
  std::vector<real_t> a(static_cast<std::size_t>(m) * k);
  std::vector<real_t> b(static_cast<std::size_t>(k) * n);
  std::vector<real_t> c(static_cast<std::size_t>(m) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  for (real_t& v : b) v = rng.uniform(-1.0, 1.0);
  for (real_t& v : c) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> ab = matmul(a, b, m, k, n);
  std::vector<real_t> got = c;
  gemm_minus(m, n, k, a.data(), m, b.data(), k, got.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(got[i], c[i] - ab[i], 1e-12);
  }
}

TEST(AtomicAdd, ConcurrentAccumulationIsExact) {
  // Sum of integers is exact in FP64, so concurrent accumulation must give
  // the exact total regardless of interleaving.
  real_t target = 0.0;
  constexpr int kThreads = 8;
  constexpr int kAdds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) atomic_add(target, 1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(target, kThreads * kAdds);
}

TEST(Tile, InsertFreezeAt) {
  Tile t(4, 3);
  t.insert(2, 1, 5.0);
  t.insert(0, 0, 1.0);
  t.insert(3, 1, -2.0);
  t.freeze();
  EXPECT_EQ(t.nnz(), 3);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 0.0);
  EXPECT_NEAR(t.density(), 3.0 / 12.0, 1e-12);
}

TEST(Tile, DensifyPreservesValues) {
  Tile t(3, 3);
  t.insert(1, 2, 4.0);
  t.insert(0, 0, -1.0);
  t.freeze();
  t.densify();
  EXPECT_EQ(t.storage(), Tile::Storage::kDense);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), -1.0);
  EXPECT_EQ(t.nnz(), 2);
}

TEST(TileMatrix, AssembleMatchesSource) {
  const Csr a = finalize_system(cage_like(60, 4, 0.2, 21), 21);
  const TilePattern p = tile_symbolic(a, 8);
  const TileMatrix tm(a, p);
  const auto dense = to_dense(a);
  for (index_t r = 0; r < a.n_rows; ++r) {
    for (index_t c = 0; c < a.n_cols; ++c) {
      const Tile* t = tm.tile(r / 8, c / 8);
      const real_t expected = dense[static_cast<std::size_t>(r) * a.n_cols + c];
      if (t == nullptr) {
        EXPECT_EQ(expected, 0.0);
      } else {
        EXPECT_DOUBLE_EQ(t->at(r % 8, c % 8), expected);
      }
    }
  }
  EXPECT_EQ(tm.total_nnz(), a.nnz());
}

TEST(TileKernels, SsssmSparseMatchesDense) {
  // C -= L * U computed twice: once with sparse L, once densified.
  Rng rng(31);
  auto make_sparse_tile = [&](index_t rows, index_t cols, real_t density) {
    Tile t(rows, cols);
    for (index_t c = 0; c < cols; ++c) {
      for (index_t r = 0; r < rows; ++r) {
        if (rng.next_real() < density) t.insert(r, c, rng.uniform(-1, 1));
      }
    }
    t.freeze();
    return t;
  };
  Tile l_sparse = make_sparse_tile(6, 5, 0.3);
  Tile l_dense = l_sparse;
  l_dense.densify();
  Tile u = make_sparse_tile(5, 7, 0.8);
  u.densify();
  u.index_nonzeros();
  Tile c1 = make_sparse_tile(6, 7, 0.5);
  Tile c2 = c1;
  tile_ssssm(c1, l_sparse, u, /*atomic=*/false);
  tile_ssssm(c2, l_dense, u, /*atomic=*/false);
  for (index_t r = 0; r < 6; ++r) {
    for (index_t c = 0; c < 7; ++c) {
      EXPECT_NEAR(c1.at(r, c), c2.at(r, c), 1e-12);
    }
  }
}

TEST(TileKernels, GetrfTstrfGeesmConsistency) {
  // Factor a 2x2 block matrix via tile kernels and verify L*U == A on the
  // off-diagonal blocks.
  Rng rng(33);
  const index_t b = 6;
  auto rnd_tile = [&](bool dd) {
    Tile t(b, b);
    for (index_t c = 0; c < b; ++c) {
      for (index_t r = 0; r < b; ++r) {
        real_t v = rng.uniform(-1, 1);
        if (dd && r == c) v += b + 1;
        t.insert(r, c, v);
      }
    }
    t.freeze();
    return t;
  };
  Tile diag = rnd_tile(true);
  Tile below0 = rnd_tile(false);
  Tile below = below0;
  Tile right0 = rnd_tile(false);
  Tile right = right0;

  tile_getrf(diag);
  tile_tstrf(below, diag);   // below := below0 * U^{-1}
  tile_geesm(right, diag);   // right := L^{-1} * right0

  // Check below * U == below0 and L * right == right0.
  for (index_t r = 0; r < b; ++r) {
    for (index_t c = 0; c < b; ++c) {
      real_t bu = 0, lr = 0;
      for (index_t k = 0; k < b; ++k) {
        const real_t u_kc = k <= c ? diag.at(k, c) : 0.0;
        bu += below.at(r, k) * u_kc;
        const real_t l_rk = r > k ? diag.at(r, k) : (r == k ? 1.0 : 0.0);
        lr += l_rk * right.at(k, c);
      }
      EXPECT_NEAR(bu, below0.at(r, c), 1e-9);
      EXPECT_NEAR(lr, right0.at(r, c), 1e-9);
    }
  }
}

TEST(Flops, CountsArePositiveAndMonotone) {
  EXPECT_GT(getrf_flops(8), getrf_flops(4));
  EXPECT_GT(trsm_flops(8, 8), trsm_flops(4, 8));
  EXPECT_EQ(gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(gemm_flops(2, 3, 4, 0.5), 24);
  EXPECT_EQ(words_to_bytes(10), 80);
}

// ---- Indexed SSSSM --------------------------------------------------------

// A tile filled from `rng`: each entry present with probability `density`.
Tile random_tile(index_t rows, index_t cols, real_t density, Rng& rng) {
  Tile t(rows, cols);
  for (index_t c = 0; c < cols; ++c) {
    for (index_t r = 0; r < rows; ++r) {
      if (rng.next_real() < density) t.insert(r, c, rng.uniform(-1, 1));
    }
  }
  t.freeze();
  return t;
}

// A dense-stored U operand, ~15% nonzero, salted with the entries the
// index must get right: -0.0 (skipped, like +0.0), NaN and +-Inf
// (visited: they compare != 0.0). 70 rows spans two index words.
Tile salted_u(Rng& rng) {
  Tile u = random_tile(70, 9, 0.15, rng);
  u.densify();
  std::vector<real_t> d(u.dense_data(), u.dense_data() + 70 * 9);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  d[3] = -0.0;
  d[70 + 64] = -0.0;
  d[2 * 70 + 5] = std::numeric_limits<real_t>::quiet_NaN();
  d[4 * 70 + 66] = inf;
  d[6 * 70 + 0] = -inf;
  d[8 * 70 + 69] = 0.5;
  u.adopt_dense(std::move(d));
  u.index_nonzeros();
  return u;
}

// The SSSSM body before the index: scan every U entry of columns [c0, c1),
// skip u == 0.0, and apply one column update per remaining entry.
void scan_ssssm(real_t* cd, index_t ldc, const Tile& l, const Tile& u,
                bool atomic, index_t c0, index_t c1) {
  const real_t* ud = u.dense_data();
  for (index_t j = c0; j < c1; ++j) {
    real_t* ccol = cd + static_cast<offset_t>(j) * ldc;
    for (index_t p = 0; p < u.rows(); ++p) {
      const real_t upj = ud[p + static_cast<offset_t>(j) * u.ld()];
      if (upj == 0.0) continue;
      if (l.storage() == Tile::Storage::kSparse) {
        for (offset_t q = l.col_ptr()[p]; q < l.col_ptr()[p + 1]; ++q) {
          const real_t delta = -l.values()[q] * upj;
          if (atomic) {
            atomic_add(ccol[l.row_idx()[q]], delta);
          } else {
            ccol[l.row_idx()[q]] += delta;
          }
        }
        continue;
      }
      const real_t* lcol = l.dense_data() + static_cast<offset_t>(p) * l.ld();
      if (atomic) {
        for (index_t i = 0; i < l.rows(); ++i) {
          atomic_add(ccol[i], -lcol[i] * upj);
        }
      } else {
        simd::axpy_minus(l.rows(), lcol, upj, ccol);
      }
    }
  }
}

TEST(TileIndex, BitsMarkExactlyTheEntriesThatCompareNonzero) {
  Rng rng(51);
  Tile u = salted_u(rng);
  ASSERT_TRUE(u.nz_indexed());
  ASSERT_EQ(u.nz_words_per_col(), 2);
  offset_t set = 0;
  for (index_t c = 0; c < u.cols(); ++c) {
    const std::uint64_t* bits = u.nz_col_bits(c);
    for (index_t r = 0; r < u.rows(); ++r) {
      const bool bit = (bits[r / 64] >> (r % 64)) & 1u;
      EXPECT_EQ(bit, u.at(r, c) != 0.0) << r << "," << c;
      set += bit;
    }
    // Padding rows beyond the tile stay clear.
    EXPECT_EQ(bits[1] >> (u.rows() - 64), 0u);
  }
  EXPECT_EQ(u.nz_indexed_count(), set);
  EXPECT_EQ(u.nz_indexed_count(), u.nnz());
}

TEST(TileIndex, IndexedSsssmMatchesScanBitwiseOnEverySlice) {
  Rng rng(53);
  const Tile u = salted_u(rng);
  Tile l_sparse = random_tile(11, 70, 0.3, rng);
  Tile l_dense = random_tile(11, 70, 1.0, rng);
  l_dense.densify();
  Tile c0_tile = random_tile(11, 9, 1.0, rng);
  c0_tile.densify();
  const std::vector<real_t> c0(c0_tile.dense_data(),
                               c0_tile.dense_data() + 11 * 9);
  enum class Accum { kPlain, kAtomic, kScratch };
  for (const Tile* l : {&l_sparse, &l_dense}) {
    for (const Accum acc : {Accum::kPlain, Accum::kAtomic, Accum::kScratch}) {
      for (index_t a = 0; a <= u.cols(); ++a) {
        for (index_t b = a; b <= u.cols(); ++b) {
          // Det mode accumulates into a zeroed scratch of the target shape.
          std::vector<real_t> got =
              acc == Accum::kScratch ? std::vector<real_t>(c0.size(), 0.0) : c0;
          std::vector<real_t> want = got;
          const bool atomic = acc == Accum::kAtomic;
          tile_ssssm_cols(got.data(), 11, *l, u, atomic, a, b);
          scan_ssssm(want.data(), 11, *l, u, atomic, a, b);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(real_t)),
                    0)
              << (l == &l_sparse ? "sparse" : "dense") << " L, accum "
              << static_cast<int>(acc) << ", columns [" << a << ", " << b
              << ")";
        }
      }
    }
  }
}

TEST(TileIndex, WritesDropTheIndexAndSsssmSeesNewValues) {
  Rng rng(55);
  Tile u = random_tile(16, 16, 0.1, rng);
  u.densify();
  u.index_nonzeros();
  // Adopting a payload with a different zero pattern must not leave the
  // old index behind: SSSSM refuses the unindexed U until it is rebuilt
  // from the new values.
  const Tile fresh_src = random_tile(16, 16, 0.4, rng);
  Tile fresh = fresh_src;
  fresh.densify();
  u.adopt_dense(std::vector<real_t>(fresh.dense_data(),
                                    fresh.dense_data() + 16 * 16));
  EXPECT_FALSE(u.nz_indexed());
  Tile l = random_tile(16, 16, 1.0, rng);
  l.densify();
  Tile c = random_tile(16, 16, 1.0, rng);
  c.densify();
  std::vector<real_t> want(c.dense_data(), c.dense_data() + 16 * 16);
  scan_ssssm(want.data(), 16, l, fresh, false, 0, 16);
  EXPECT_THROW(tile_ssssm(c, l, u, /*atomic=*/false), Error);
  u.index_nonzeros();
  tile_ssssm(c, l, u, /*atomic=*/false);
  EXPECT_EQ(std::memcmp(c.dense_data(), want.data(),
                        want.size() * sizeof(real_t)),
            0);

  std::vector<real_t> spilled = u.release_dense();
  EXPECT_FALSE(u.nz_indexed());
  u.adopt_dense(std::move(spilled));
  u.index_nonzeros();
  // Whole-tile kernels: GETRF and SSSSM outputs drop their index; TSTRF
  // and GEESM outputs, the L and U factors, leave it built from the new
  // values.
  Tile diag = random_tile(16, 16, 1.0, rng);
  for (index_t i = 0; i < 16; ++i) {
    diag.densify();
    diag.dense_data()[i + 16 * i] += 20.0;
  }
  tile_getrf(diag);
  EXPECT_FALSE(diag.nz_indexed());
  for (const bool geesm : {false, true}) {
    if (geesm) {
      tile_geesm(u, diag);
    } else {
      tile_tstrf(u, diag);
    }
    EXPECT_TRUE(u.nz_indexed());
    for (index_t col = 0; col < 16; ++col) {
      for (index_t r = 0; r < 16; ++r) {
        EXPECT_EQ((u.nz_col_bits(col)[0] >> r) & 1u, u.at(r, col) != 0.0);
      }
    }
  }
  fresh.index_nonzeros();
  tile_ssssm(u, l, fresh, /*atomic=*/false);
  EXPECT_FALSE(u.nz_indexed());
}

// ---- Stale-index safety through the solver ---------------------------------
//
// The oracle replays the run's batch log serially on fresh tiles with the
// whole-tile kernels, re-indexing U from its current values before every
// SSSSM — so no index can be stale there. One executor lane in atomic mode
// runs each batch's members in place in batch order, exactly that replay.

struct Injection {
  index_t task_id;
  NumericFaultKind kind;
};

void replay_batches(SolverInstance& fresh, const BatchLog& log,
                    const std::vector<Injection>& faults) {
  PluFactorization& plu = *fresh.plu_factorization();
  TileMatrix& tm = plu.tiles();
  const TaskGraph& g = fresh.graph();
  for (const BatchLog::Batch& b : log.batches) {
    for (std::size_t i = 0; i < b.members.size(); ++i) {
      ASSERT_EQ(b.status[i], 0) << "replay covers completed members only";
      const Task& t = g.task(b.members[i]);
      for (const Injection& f : faults) {
        if (f.task_id == t.id && !silent_fault_kind(f.kind)) {
          plu.backend().inject_fault(t, f.kind);
        }
      }
      Tile& target = *tm.tile(t.row, t.col);
      switch (t.type) {
        case TaskType::kGetrf:
          tile_getrf(target);
          break;
        case TaskType::kTstrf:
          tile_tstrf(target, *tm.tile(t.k, t.k));
          break;
        case TaskType::kGeesm:
          tile_geesm(target, *tm.tile(t.k, t.k));
          break;
        case TaskType::kSsssm: {
          Tile& u = *tm.tile(t.k, t.col);
          u.index_nonzeros();
          tile_ssssm(target, *tm.tile(t.row, t.k), u, /*atomic=*/false);
          break;
        }
      }
    }
    // Silent corruption lands after the whole batch ran (BatchExecutor).
    for (const std::int64_t id : b.members) {
      for (const Injection& f : faults) {
        if (f.task_id == id && silent_fault_kind(f.kind)) {
          plu.backend().inject_fault(g.task(f.task_id), f.kind);
        }
      }
    }
  }
}

void expect_same_factors(const SolverInstance& x, const SolverInstance& y) {
  const TileMatrix& a = x.plu_factorization()->tiles();
  const TileMatrix& b = y.plu_factorization()->tiles();
  ASSERT_EQ(a.nt(), b.nt());
  for (index_t i = 0; i < a.nt(); ++i) {
    for (index_t j = 0; j < a.nt(); ++j) {
      const Tile* p = a.tile(i, j);
      const Tile* q = b.tile(i, j);
      ASSERT_EQ(p == nullptr, q == nullptr);
      if (p == nullptr) continue;
      ASSERT_EQ(p->storage(), Tile::Storage::kDense) << i << "," << j;
      ASSERT_EQ(q->storage(), Tile::Storage::kDense) << i << "," << j;
      EXPECT_EQ(std::memcmp(p->dense_data(), q->dense_data(),
                            static_cast<std::size_t>(p->rows()) * p->cols() *
                                sizeof(real_t)),
                0)
          << "tile " << i << "," << j;
    }
  }
}

class StaleIndex : public ::testing::Test {
 protected:
  StaleIndex() : a_(finalize_system(grid2d_laplacian(20, 20), 77)) {
    io_.core = SolverCore::kPlu;
    io_.block = 16;
    io_.grid = make_process_grid(2);
  }

  ScheduleOptions options() const {
    ScheduleOptions so;
    so.cluster = cluster_h100();
    so.n_ranks = 2;
    so.policy = Policy::kTrojanHorse;
    so.exec.workers = 1;
    so.exec.accum = exec::AccumMode::kAtomic;
    so.collect_batches = true;
    return so;
  }

  std::vector<index_t> geesm_ids(const SolverInstance& inst) const {
    std::vector<index_t> ids;
    for (const Task& t : inst.graph().tasks()) {
      if (t.type == TaskType::kGeesm) ids.push_back(t.id);
    }
    return ids;
  }

  Csr a_;
  InstanceOptions io_;
};

TEST_F(StaleIndex, SpillAndReloadMatchSerialReplay) {
  SolverInstance run(a_, io_);
  ScheduleOptions so = options();
  const mem::FootprintProjection fp = mem::project_footprint(run.graph(), 2);
  so.mem.budget_bytes = std::max<offset_t>(1 << 14, fp.peak_rank_bytes / 2);
  so.mem.policy = mem::MemPolicy::kSpill;
  const ScheduleResult r = run.run_numeric(so);
  ASSERT_GT(r.stats().mem.tiles_spilled, 0);
  ASSERT_GT(r.stats().mem.tiles_reloaded, 0);
  SolverInstance fresh(a_, io_);
  replay_batches(fresh, r.stats().batches, {});
  expect_same_factors(run, fresh);
}

TEST_F(StaleIndex, InjectedFaultsMatchSerialReplay) {
  // Corrupt factored U tiles after their GEESM indexed them (a silent
  // kind, no ABFT: the damage stays for the SSSSMs that read them). The
  // damage is finite so every later pivot stays usable.
  SolverInstance run(a_, io_);
  const std::vector<index_t> geesm = geesm_ids(run);
  ASSERT_GE(geesm.size(), 3u);
  const std::vector<Injection> faults = {
      {geesm[0], NumericFaultKind::kScaledEntry},
      {geesm[geesm.size() / 2], NumericFaultKind::kScaledEntry},
      {geesm.back(), NumericFaultKind::kScaledEntry}};
  ScheduleOptions so = options();
  for (const Injection& f : faults) {
    so.faults.numeric_faults.push_back({f.task_id, f.kind});
  }
  const ScheduleResult r = run.run_numeric(so);
  ASSERT_EQ(r.stats().faults.numeric_faults_injected, 3);
  SolverInstance fresh(a_, io_);
  replay_batches(fresh, r.stats().batches, faults);
  expect_same_factors(run, fresh);
}

// The index of a tile must mark exactly its entries that compare != 0.0.
void expect_index_current(const Tile& u) {
  ASSERT_TRUE(u.nz_indexed());
  for (index_t c = 0; c < u.cols(); ++c) {
    for (index_t r = 0; r < u.rows(); ++r) {
      EXPECT_EQ((u.nz_col_bits(c)[r / 64] >> (r % 64)) & 1u, u.at(r, c) != 0.0)
          << r << "," << c;
    }
  }
}

// After a run every off-diagonal (L or U factor) tile carries an index
// that marks exactly its entries != 0.0; diagonal tiles carry none.
void expect_factors_indexed(const TileMatrix& tm) {
  for (index_t i = 0; i < tm.nt(); ++i) {
    for (index_t j = 0; j < tm.nt(); ++j) {
      if (!tm.has(i, j)) continue;
      SCOPED_TRACE(::testing::Message() << "tile " << i << "," << j);
      if (i == j) {
        EXPECT_FALSE(tm.tile(i, j)->nz_indexed());
      } else {
        expect_index_current(*tm.tile(i, j));
      }
    }
  }
}

TEST_F(StaleIndex, RunNumericLeavesEveryFactorIndexedAndRewritesKeepIt) {
  SolverInstance inst(a_, io_);
  inst.run_numeric(options());
  TileMatrix& tm = inst.plu_factorization()->tiles();
  expect_factors_indexed(tm);
  // The slices built them all: the end-of-run sweep found nothing.
  EXPECT_EQ(tm.index_factors(), 0);
  // Re-run one GEESM and one TSTRF through the block API: their slices
  // index the outputs (GEESM by columns, TSTRF by OR-ing row slices).
  NumericBackend& be = inst.plu_factorization()->backend();
  for (const TaskType type : {TaskType::kGeesm, TaskType::kTstrf}) {
    const Task* pick = nullptr;
    for (const Task& t : inst.graph().tasks()) {
      if (t.type == type) pick = &t;
    }
    ASSERT_NE(pick, nullptr);
    Tile& f = *tm.tile(pick->row, pick->col);
    // A factor task's target must not carry an index when it runs.
    EXPECT_THROW(be.prepare_task(*pick), Error);
    f.drop_nz_index();
    be.prepare_task(*pick);
    const index_t half = pick->cost.cuda_blocks / 2;
    ASSERT_GE(be.run_blocks(*pick, half, pick->cost.cuda_blocks, false,
                            nullptr),
              0);
    ASSERT_GE(be.run_blocks(*pick, 0, half, false, nullptr), 0);
    expect_index_current(f);
  }
  // Serial rewrites of a factored tile re-derive its index, so the SSSSMs
  // still to come and the solves read the new values' pattern.
  const Task& t = inst.graph().task(geesm_ids(inst).front());
  Tile& u = *tm.tile(t.row, t.col);
  ASSERT_TRUE(be.inject_fault(t, NumericFaultKind::kInf));
  expect_index_current(u);
  u.dense_data()[0] = std::numeric_limits<real_t>::quiet_NaN();
  u.index_nonzeros();
  GuardPolicy gp;
  EXPECT_GT(be.guard_task(t, gp).nonfinite_scrubbed, 0);  // NaN -> 0.0
  expect_index_current(u);
  be.restore_block(
      t, std::vector<real_t>(static_cast<std::size_t>(u.rows()) * u.cols(),
                             1.0));
  expect_index_current(u);
  EXPECT_EQ(u.nz_indexed_count(), static_cast<offset_t>(u.rows()) * u.cols());
  EXPECT_EQ(u.nnz(), u.nz_indexed_count());
  // An ABFT rollback restores the pre-batch snapshot: the index goes
  // until the task re-runs.
  be.abft_capture(t);
  be.abft_rollback(t);
  EXPECT_FALSE(u.nz_indexed());
  be.abft_reset();
}

TEST_F(StaleIndex, ThrownRunFreesEveryIndex) {
  // A cancelled run unwinds at a batch boundary with some factor tiles
  // written and indexed; the partial factors keep no index.
  SolverInstance probe(a_, io_);
  const real_t makespan = probe.run_timing(options()).makespan_s;
  SolverInstance inst(a_, io_);
  CancelToken token;
  token.set_deadline(makespan / 2);
  ScheduleOptions so = options();
  so.cancel = &token;
  EXPECT_THROW(inst.run_numeric(so), CancelledError);
  const TileMatrix& tm = inst.plu_factorization()->tiles();
  index_t dense = 0;
  for (index_t i = 0; i < tm.nt(); ++i) {
    for (index_t j = 0; j < tm.nt(); ++j) {
      if (!tm.has(i, j)) continue;
      EXPECT_FALSE(tm.tile(i, j)->nz_indexed()) << i << "," << j;
      dense += tm.tile(i, j)->storage() == Tile::Storage::kDense;
    }
  }
  EXPECT_GT(dense, 0);  // the run did start writing tiles
}

TEST_F(StaleIndex, HostSsssmFlopsCountTheIndexedPairs) {
  // th.host.flops.ssssm: 2 flops per L row for every U nonzero an SSSSM
  // walked — here each task runs once, against its U tile's final values.
  obs::Counter& flops = obs::Registry::global().counter("th.host.flops.ssssm");
  for (const bool obs_on : {false, true}) {
    const obs::Session session(obs_on);  // on: starts from zeroed values
    const std::int64_t before = flops.value();
    SolverInstance inst(a_, io_);
    inst.run_numeric(options());
    const TileMatrix& tm = inst.plu_factorization()->tiles();
    std::int64_t want = 0;
    for (const Task& t : inst.graph().tasks()) {
      if (t.type != TaskType::kSsssm) continue;
      const Tile& u = *tm.tile(t.k, t.col);
      want += 2 * static_cast<std::int64_t>(tm.tile(t.row, t.col)->rows()) *
              u.nnz();
    }
    ASSERT_GT(want, 0);
    EXPECT_EQ(flops.value() - before, obs_on ? want : 0);
  }
}

TEST_F(StaleIndex, HostSsssmFlopsCountEveryExecution) {
  // Executed, not planned: a transient fault skips its attempt's numerics
  // (status 1) and an ABFT rollback re-runs a member that did execute
  // (status 3), so the count follows the batch log, not the task graph.
  obs::Counter& flops = obs::Registry::global().counter("th.host.flops.ssssm");
  const obs::Session session(true);
  SolverInstance inst(a_, io_);
  std::vector<index_t> ssssm;
  for (const Task& t : inst.graph().tasks()) {
    if (t.type == TaskType::kSsssm) ssssm.push_back(t.id);
  }
  ASSERT_GE(ssssm.size(), 2u);
  ScheduleOptions so = options();
  so.abft.enabled = true;
  so.faults.transient_prob[static_cast<std::size_t>(TaskType::kSsssm)] = 0.05;
  so.faults.max_retries = 20;
  so.faults.numeric_faults.push_back({ssssm[0], NumericFaultKind::kBitFlip});
  so.faults.numeric_faults.push_back(
      {ssssm[ssssm.size() / 2], NumericFaultKind::kBitFlip});
  const std::int64_t before = flops.value();
  const ScheduleResult r = inst.run_numeric(so);
  const TileMatrix& tm = inst.plu_factorization()->tiles();
  std::int64_t want = 0;
  int transient = 0;
  int rolled_back = 0;
  for (const BatchLog::Batch& b : r.stats().batches.batches) {
    for (std::size_t i = 0; i < b.members.size(); ++i) {
      const Task& t = inst.graph().task(b.members[i]);
      if (t.type != TaskType::kSsssm) continue;
      ASSERT_NE(b.status[i], 2) << "no rank restarts in this run";
      if (b.status[i] == 1) {
        ++transient;
        continue;
      }
      if (b.status[i] == 3) ++rolled_back;
      want += 2 * static_cast<std::int64_t>(tm.tile(t.row, t.col)->rows()) *
              tm.tile(t.k, t.col)->nnz();
    }
  }
  ASSERT_GT(transient, 0);
  ASSERT_GT(rolled_back, 0);
  EXPECT_EQ(flops.value() - before, want);
}

TEST_F(StaleIndex, SplitTasksIndexAcrossLanesBitwise) {
  // Tiles of 64 give 64-block tasks: two 32-block chunks, so two lanes run
  // slices of one GEESM (each indexing its own columns of the tile) and of
  // one SSSSM at once. Det factors must match the one-lane run bitwise.
  io_.block = 64;
  ScheduleOptions so = options();
  so.exec.accum = exec::AccumMode::kDeterministic;
  SolverInstance one(a_, io_);
  one.run_numeric(so);
  so.exec.workers = 4;
  SolverInstance four(a_, io_);
  const ScheduleResult r = four.run_numeric(so);
  EXPECT_GT(r.stats().exec.slices, 0);
  expect_same_factors(one, four);
}

// ---- Indexed triangular-solve updates ----------------------------------
//
// The references are the dense scans every solve ran before the factor
// tiles kept their index: each visits every tile entry, skipping only
// in(c) == 0.0 in the column forms.

void scan_solve_update(const Tile& t, SolveUpdate op, const real_t* in,
                       index_t ld_in, real_t* out, index_t ld_out,
                       index_t nrhs) {
  const real_t* d = t.dense_data();
  for (index_t r = 0; r < nrhs; ++r) {
    const real_t* x = in + static_cast<offset_t>(r) * ld_in;
    real_t* o = out + static_cast<offset_t>(r) * ld_out;
    if (op == SolveUpdate::kSubtractTransposed) {
      for (index_t c = 0; c < t.cols(); ++c) {
        real_t acc = 0;
        for (index_t i = 0; i < t.rows(); ++i) {
          acc += d[i + static_cast<offset_t>(c) * t.ld()] * x[i];
        }
        o[c] -= acc;
      }
      continue;
    }
    for (index_t c = 0; c < t.cols(); ++c) {
      const real_t v = x[c];
      if (v == 0.0) continue;
      const real_t* tc = d + static_cast<offset_t>(c) * t.ld();
      for (index_t i = 0; i < t.rows(); ++i) {
        if (op == SolveUpdate::kSubtract) {
          o[i] -= tc[i] * v;
        } else if (op == SolveUpdate::kAtomicSubtract) {
          atomic_add(o[i], -tc[i] * v);
        } else {
          o[i] += tc[i] * v;
        }
      }
    }
  }
}

// Finite values with exact +0.0 entries (about a third) and no -0.0: the
// inputs the solves see (DESIGN.md §4).
std::vector<real_t> finite_with_zeros(std::size_t n, Rng& rng) {
  std::vector<real_t> v(n);
  for (real_t& x : v) x = rng.next_real() < 0.35 ? 0.0 : rng.uniform(-2, 2);
  return v;
}

TEST(SolveIndex, UpdateKernelMatchesDenseScanBitwise) {
  Rng rng(61);
  // One-word and two-word columns, square and skinny tiles.
  struct Shape {
    index_t rows, cols;
    real_t density;
  };
  for (const Shape sh : {Shape{64, 64, 0.06}, Shape{70, 9, 0.15},
                         Shape{9, 70, 0.3}, Shape{16, 16, 1.0}}) {
    Tile t = random_tile(sh.rows, sh.cols, sh.density, rng);
    t.densify();
    t.index_nonzeros();
    for (const SolveUpdate op :
         {SolveUpdate::kSubtract, SolveUpdate::kAtomicSubtract,
          SolveUpdate::kAccumulate, SolveUpdate::kSubtractTransposed}) {
      const bool tr = op == SolveUpdate::kSubtractTransposed;
      const index_t n_in = tr ? t.rows() : t.cols();
      const index_t n_out = tr ? t.cols() : t.rows();
      // Leading dimensions wider than the vectors, as in an n x nrhs block.
      const index_t ld_in = n_in + 3;
      const index_t ld_out = n_out + 5;
      for (const index_t nrhs : {1, 4, 16}) {
        const std::vector<real_t> in =
            finite_with_zeros(static_cast<std::size_t>(ld_in) * nrhs, rng);
        // Det scratch starts all +0.0; the other outputs hold solve state.
        const std::vector<real_t> out0 =
            op == SolveUpdate::kAccumulate
                ? std::vector<real_t>(static_cast<std::size_t>(ld_out) * nrhs,
                                      0.0)
                : finite_with_zeros(static_cast<std::size_t>(ld_out) * nrhs,
                                    rng);
        std::vector<real_t> got = out0;
        std::vector<real_t> want = out0;
        tile_solve_update(t, op, in.data(), ld_in, got.data(), ld_out, nrhs);
        scan_solve_update(t, op, in.data(), ld_in, want.data(), ld_out,
                          nrhs);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(real_t)),
                  0)
            << sh.rows << "x" << sh.cols << " op " << static_cast<int>(op)
            << " nrhs " << nrhs;
      }
    }
  }
}

// PluFactorization::solve / solve_transpose as they were: dense scans of
// every off-diagonal tile.
std::vector<real_t> scan_solve(const PluFactorization& f,
                               const std::vector<real_t>& b, bool transpose) {
  const TileMatrix& tm = f.tiles();
  const index_t n = f.pattern().n;
  const index_t nt = tm.nt();
  const index_t bs = f.pattern().tile_size;
  std::vector<real_t> x = b;
  auto blk = [&](index_t k) {
    return x.data() + static_cast<offset_t>(k) * bs;
  };
  auto update = [&](index_t i, index_t j, index_t out, index_t in) {
    if (const Tile* t = tm.tile(i, j)) {
      scan_solve_update(*t,
                        transpose ? SolveUpdate::kSubtractTransposed
                                  : SolveUpdate::kSubtract,
                        blk(in), n, blk(out), n, 1);
    }
  };
  for (index_t J = 0; J < nt; ++J) {
    const Tile& dg = *tm.tile(J, J);
    const real_t* d = dg.dense_data();
    const index_t w = dg.cols();
    real_t* xj = blk(J);
    if (transpose) {
      for (index_t r = 0; r < w; ++r) {
        real_t acc = xj[r];
        for (index_t k = 0; k < r; ++k) acc -= d[k + r * w] * xj[k];
        xj[r] = acc / d[r + r * w];
      }
      for (index_t K = J + 1; K < nt; ++K) update(J, K, K, J);
    } else {
      for (index_t c = 0; c < w; ++c) {
        const real_t xc = xj[c];
        if (xc == 0.0) continue;
        for (index_t r = c + 1; r < w; ++r) xj[r] -= d[r + c * w] * xc;
      }
      for (index_t I = J + 1; I < nt; ++I) update(I, J, I, J);
    }
  }
  for (index_t J = nt - 1; J >= 0; --J) {
    const Tile& dg = *tm.tile(J, J);
    const real_t* d = dg.dense_data();
    const index_t w = dg.cols();
    real_t* xj = blk(J);
    if (transpose) {
      for (index_t I = J + 1; I < nt; ++I) update(I, J, J, I);
      for (index_t r = w - 1; r >= 0; --r) {
        real_t acc = xj[r];
        for (index_t k = r + 1; k < w; ++k) acc -= d[k + r * w] * xj[k];
        xj[r] = acc;
      }
    } else {
      for (index_t K = J + 1; K < nt; ++K) update(J, K, J, K);
      for (index_t c = w - 1; c >= 0; --c) {
        real_t acc = xj[c];
        for (index_t r = c + 1; r < w; ++r) acc -= d[c + r * w] * xj[r];
        xj[c] = acc / d[c + c * w];
      }
    }
  }
  return x;
}

void expect_bitwise(const std::vector<real_t>& got,
                    const std::vector<real_t>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(real_t)), 0)
      << what;
}

TEST_F(StaleIndex, SequentialSolvesMatchDenseScanBitwise) {
  SolverInstance inst(a_, io_);
  inst.run_numeric(options());
  const PluFactorization& f = *inst.plu_factorization();
  Rng rng(63);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<real_t> b =
        finite_with_zeros(static_cast<std::size_t>(f.pattern().n), rng);
    expect_bitwise(f.solve(b), scan_solve(f, b, false), "solve");
    expect_bitwise(f.solve_transpose(b), scan_solve(f, b, true),
                   "solve_transpose");
  }
}

TEST_F(StaleIndex, SolvesRefuseAnUnindexedFactorTile) {
  SolverInstance inst(a_, io_);
  inst.run_numeric(options());
  PluFactorization& f = *inst.plu_factorization();
  const std::vector<real_t> b(static_cast<std::size_t>(f.pattern().n), 1.0);
  const std::vector<real_t> x = f.solve(b);
  // One L tile and one U tile, each stripped of its index in turn.
  const TaskGraph& g = inst.graph();
  for (const TaskType type : {TaskType::kTstrf, TaskType::kGeesm}) {
    const Task* pick = nullptr;
    for (const Task& t : g.tasks()) {
      if (t.type == type && pick == nullptr) pick = &t;
    }
    ASSERT_NE(pick, nullptr);
    f.tiles().tile(pick->row, pick->col)->drop_nz_index();
    EXPECT_THROW(f.solve(b), Error);
    EXPECT_THROW(f.solve_transpose(b), Error);
    PluTriangularSolver tri(f, 1);
    std::vector<real_t> y(b.size());
    EXPECT_THROW(tri.solve(b.data(), y.data(), options()), Error);
    EXPECT_EQ(f.tiles().index_factors(), 1);
    expect_bitwise(f.solve(b), x, "re-indexed solve");
  }
}

TEST_F(StaleIndex, RestoredFactorsSolveBitwiseLikeTheRun) {
  // Durable rehydration adopts every factor tile from storage, which
  // drops the indexes; restore_numeric_done() rebuilds them.
  SolverInstance run(a_, io_);
  run.run_numeric(options());
  SolverInstance restored(a_, io_);
  const TileMatrix& src = run.plu_factorization()->tiles();
  TileMatrix& dst = restored.plu_factorization()->tiles();
  for (index_t i = 0; i < src.nt(); ++i) {
    for (index_t j = 0; j < src.nt(); ++j) {
      if (!src.has(i, j)) continue;
      const Tile& t = *src.tile(i, j);
      dst.tile(i, j)->adopt_dense(std::vector<real_t>(
          t.dense_data(),
          t.dense_data() + static_cast<offset_t>(t.rows()) * t.cols()));
    }
  }
  restored.restore_numeric_done();
  expect_factors_indexed(dst);
  Rng rng(65);
  const std::vector<real_t> b =
      finite_with_zeros(static_cast<std::size_t>(a_.n_rows), rng);
  expect_bitwise(restored.solve(b), run.solve(b), "solve after restore");
}

TEST_F(StaleIndex, RestartFromCheckpointLeavesFactorsIndexed) {
  // A rank restart rolls its completions back to the last checkpoint and
  // re-completes them; the factors keep current indexes, and solves match
  // a clean run's (one lane, det mode: the factors are the same).
  ScheduleOptions so = options();
  so.exec.accum = exec::AccumMode::kDeterministic;
  SolverInstance clean(a_, io_);
  const real_t m = clean.run_numeric(so).makespan_s;
  so.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  so.checkpoint.interval_s = m / 3;
  so.checkpoint.write_cost_s = m / 200;
  so.checkpoint.restore_cost_s = m / 50;
  so.faults.rank_failures.push_back(
      {1, m * 0.55, RankRecovery::kRestartFromCheckpoint});
  SolverInstance restarted(a_, io_);
  const ScheduleResult r = restarted.run_numeric(so);
  ASSERT_EQ(r.stats().faults.ranks_restarted, 1);
  ASSERT_GT(r.stats().faults.tasks_restarted, 0);
  expect_factors_indexed(restarted.plu_factorization()->tiles());
  expect_same_factors(restarted, clean);
  Rng rng(67);
  const std::vector<real_t> b =
      finite_with_zeros(static_cast<std::size_t>(a_.n_rows), rng);
  expect_bitwise(restarted.solve(b), clean.solve(b), "solve after restart");
}

// ---- SIMD inner loops --------------------------------------------------

TEST(Simd, AxpyMinusMatchesScalarBitwise) {
  std::vector<real_t> x(67), y(67), ref(67);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 / (1.0 + static_cast<real_t>(i));
    y[i] = ref[i] = 3.0 - 0.125 * static_cast<real_t>(i);
  }
  const real_t alpha = 1.0 / 3.0;
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] -= x[i] * alpha;
  simd::axpy_minus(static_cast<index_t>(x.size()), x.data(), alpha, y.data());
  EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(real_t)), 0);
}

TEST(Simd, ScaleMatchesScalarBitwise) {
  std::vector<real_t> x(61), ref(61);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = ref[i] = 0.7 + static_cast<real_t>(i) * 0.031;
  }
  const real_t alpha = 1.0 / 7.0;
  for (real_t& v : ref) v *= alpha;
  simd::scale(static_cast<index_t>(x.size()), x.data(), alpha);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), x.size() * sizeof(real_t)), 0);
}

TEST(Simd, NonzeroMaskMatchesScalarBitwise) {
  // Every length up to a full word, with the entries C's != must get
  // right: +-0.0 clear, NaN and +-Inf set, denormals set.
  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<real_t> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    switch (i % 7) {
      case 0: x[i] = 0.0; break;
      case 1: x[i] = -0.0; break;
      case 2: x[i] = std::numeric_limits<real_t>::quiet_NaN(); break;
      case 3: x[i] = i % 2 ? inf : -inf; break;
      case 4: x[i] = std::numeric_limits<real_t>::denorm_min(); break;
      default: x[i] = 0.25 * static_cast<real_t>(i) - 3.0; break;
    }
  }
  for (index_t n = 0; n <= 64; ++n) {
    for (index_t off = 0; off + n <= 64 && off < 5; ++off) {
      std::uint64_t want = 0;
      for (index_t i = 0; i < n; ++i) {
        want |= static_cast<std::uint64_t>(x[off + i] != 0.0) << i;
      }
      EXPECT_EQ(simd::nonzero_mask(n, x.data() + off), want) << n << "@" << off;
      EXPECT_EQ(simd::detail::nonzero_mask_portable(n, x.data() + off), want);
    }
  }
}

TEST(Simd, DispatchNameIsCoherent) {
  const char* name = simd::dispatch_name();
  ASSERT_NE(name, nullptr);
  if (simd::avx2_active()) {
    EXPECT_STREQ(name, "avx2");
  } else {
    EXPECT_TRUE(std::strncmp(name, "portable", 8) == 0) << name;
  }
}

}  // namespace
}  // namespace th
