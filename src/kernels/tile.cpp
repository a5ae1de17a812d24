#include "kernels/tile.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "kernels/dense.hpp"
#include "kernels/simd.hpp"
#include "support/error.hpp"

namespace th {

Tile::Tile(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  TH_CHECK(rows > 0 && cols > 0);
  col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
}

offset_t Tile::nnz() const {
  if (storage_ == Storage::kSparse) {
    return static_cast<offset_t>(row_idx_.size());
  }
  if (nz_indexed()) return nz_indexed_count();
  offset_t c = 0;
  for (real_t v : dense_) c += (v != 0.0);
  return c;
}

void Tile::insert(index_t r, index_t c, real_t v) {
  TH_CHECK(storage_ == Storage::kSparse && !frozen_);
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  // Buffered as (col-counted) triplets: row_idx_/values_ carry entries,
  // col_ptr_ carries per-column counts until freeze().
  row_idx_.push_back(r);
  values_.push_back(v);
  ++col_ptr_[static_cast<std::size_t>(c) + 1];
  pending_cols_.push_back(c);
}

void Tile::freeze() {
  TH_CHECK(storage_ == Storage::kSparse && !frozen_);
  for (index_t c = 0; c < cols_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  std::vector<offset_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  std::vector<index_t> rows(row_idx_.size());
  std::vector<real_t> vals(values_.size());
  for (std::size_t k = 0; k < pending_cols_.size(); ++k) {
    const offset_t p = cursor[pending_cols_[k]]++;
    rows[static_cast<std::size_t>(p)] = row_idx_[k];
    vals[static_cast<std::size_t>(p)] = values_[k];
  }
  // Sort rows within each column.
  for (index_t c = 0; c < cols_; ++c) {
    const offset_t lo = col_ptr_[c], hi = col_ptr_[c + 1];
    std::vector<std::pair<index_t, real_t>> tmp;
    tmp.reserve(static_cast<std::size_t>(hi - lo));
    for (offset_t p = lo; p < hi; ++p) {
      tmp.emplace_back(rows[static_cast<std::size_t>(p)],
                       vals[static_cast<std::size_t>(p)]);
    }
    std::sort(tmp.begin(), tmp.end());
    for (offset_t p = lo; p < hi; ++p) {
      rows[static_cast<std::size_t>(p)] = tmp[static_cast<std::size_t>(p - lo)].first;
      vals[static_cast<std::size_t>(p)] = tmp[static_cast<std::size_t>(p - lo)].second;
    }
  }
  row_idx_ = std::move(rows);
  values_ = std::move(vals);
  pending_cols_.clear();
  pending_cols_.shrink_to_fit();
  frozen_ = true;
}

void Tile::densify() {
  if (storage_ == Storage::kDense) return;
  TH_CHECK_MSG(frozen_, "densify before freeze()");
  dense_.assign(static_cast<std::size_t>(rows_) * cols_, 0.0);
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      dense_[static_cast<std::size_t>(c) * rows_ + row_idx_[p]] = values_[p];
    }
  }
  storage_ = Storage::kDense;
  col_ptr_.clear();
  row_idx_.clear();
  values_.clear();
  col_ptr_.shrink_to_fit();
  row_idx_.shrink_to_fit();
  values_.shrink_to_fit();
}

std::vector<real_t> Tile::release_dense() {
  TH_CHECK(storage_ == Storage::kDense);
  std::vector<real_t> out = std::move(dense_);
  dense_.clear();
  drop_nz_index();
  return out;
}

void Tile::adopt_dense(std::vector<real_t> data) {
  TH_CHECK_MSG(data.size() == static_cast<std::size_t>(rows_) * cols_,
               "adopt_dense: got " << data.size() << " elements for a "
                                   << rows_ << "x" << cols_ << " tile");
  dense_ = std::move(data);
  storage_ = Storage::kDense;
  drop_nz_index();
  col_ptr_.clear();
  row_idx_.clear();
  values_.clear();
}

void Tile::begin_nz_index() {
  TH_CHECK(storage_ == Storage::kDense);
  nz_bits_.assign(static_cast<std::size_t>(cols_) * nz_words_per_col(), 0);
}

void Tile::index_nonzero_cols(index_t c0, index_t c1) {
  TH_CHECK(nz_indexed() && c0 >= 0 && c0 <= c1 && c1 <= cols_);
  const index_t wpc = nz_words_per_col();
  for (index_t c = c0; c < c1; ++c) {
    const real_t* col = dense_.data() + static_cast<offset_t>(c) * rows_;
    std::uint64_t* bits = nz_bits_.data() + static_cast<std::size_t>(c) * wpc;
    for (index_t w = 0; w < wpc; ++w) {
      const index_t r0 = w * 64;
      bits[w] =
          simd::nonzero_mask(std::min<index_t>(rows_ - r0, 64), col + r0);
    }
  }
}

void Tile::index_nonzero_rows(index_t r0, index_t r1) {
  TH_CHECK(nz_indexed() && r0 >= 0 && r0 <= r1 && r1 <= rows_);
  const index_t wpc = nz_words_per_col();
  for (index_t c = 0; c < cols_; ++c) {
    const real_t* col = dense_.data() + static_cast<offset_t>(c) * rows_;
    std::uint64_t* bits = nz_bits_.data() + static_cast<std::size_t>(c) * wpc;
    // Slices of one task own disjoint rows but may share a word, so each
    // ORs its part in atomically.
    for (index_t r = r0; r < r1;) {
      const index_t w = r / 64;
      const index_t end = std::min<index_t>(r1, (w + 1) * 64);
      const std::uint64_t m = simd::nonzero_mask(end - r, col + r)
                              << (r - w * 64);
      if (m != 0) {
        std::atomic_ref<std::uint64_t>(bits[w]).fetch_or(
            m, std::memory_order_relaxed);
      }
      r = end;
    }
  }
}

void Tile::index_nonzeros() {
  begin_nz_index();
  index_nonzero_cols(0, cols_);
}

void Tile::drop_nz_index() {
  if (!nz_bits_.empty()) std::vector<std::uint64_t>().swap(nz_bits_);
}

offset_t Tile::nz_indexed_count() const {
  TH_CHECK(nz_indexed());
  offset_t n = 0;
  for (const std::uint64_t w : nz_bits_) n += std::popcount(w);
  return n;
}

real_t* Tile::dense_data() {
  TH_CHECK(storage_ == Storage::kDense);
  return dense_.data();
}

const real_t* Tile::dense_data() const {
  TH_CHECK(storage_ == Storage::kDense);
  return dense_.data();
}

real_t Tile::at(index_t r, index_t c) const {
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  if (storage_ == Storage::kDense) {
    return dense_[static_cast<std::size_t>(c) * rows_ + r];
  }
  TH_CHECK(frozen_);
  for (offset_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
    if (row_idx_[p] == r) return values_[p];
  }
  return 0.0;
}

TileMatrix::TileMatrix(const Csr& a, const TilePattern& pattern)
    : pattern_(pattern) {
  TH_CHECK(a.n_rows == pattern.n && a.n_cols == pattern.n);
  const index_t nt = pattern_.nt;
  tiles_.resize(static_cast<std::size_t>(nt) * nt);
  const index_t b = pattern_.tile_size;
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      if (pattern_.has(i, j)) {
        tiles_[static_cast<std::size_t>(i) * nt + j] = std::make_unique<Tile>(
            pattern_.rows_in_tile(i), pattern_.rows_in_tile(j));
      }
    }
  }
  for (index_t r = 0; r < a.n_rows; ++r) {
    const index_t I = r / b;
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t cidx = a.col_idx[p];
      const index_t J = cidx / b;
      Tile* t = tile(I, J);
      TH_ASSERT(t != nullptr);
      t->insert(r - I * b, cidx - J * b, a.values[p]);
    }
  }
  for (auto& t : tiles_) {
    if (t) t->freeze();
  }
}

Tile* TileMatrix::tile(index_t i, index_t j) {
  TH_CHECK(i >= 0 && i < nt() && j >= 0 && j < nt());
  return tiles_[static_cast<std::size_t>(i) * nt() + j].get();
}

const Tile* TileMatrix::tile(index_t i, index_t j) const {
  TH_CHECK(i >= 0 && i < nt() && j >= 0 && j < nt());
  return tiles_[static_cast<std::size_t>(i) * nt() + j].get();
}

offset_t TileMatrix::total_nnz() const {
  offset_t total = 0;
  for (const auto& t : tiles_) {
    if (t) total += t->nnz();
  }
  return total;
}

index_t TileMatrix::index_factors() {
  index_t built = 0;
  for (index_t i = 0; i < nt(); ++i) {
    for (index_t j = 0; j < nt(); ++j) {
      Tile* t = tile(i, j);
      if (i == j || t == nullptr || t->nz_indexed()) continue;
      TH_CHECK_MSG(t->storage() == Tile::Storage::kDense,
                   "index_factors: tile " << i << "," << j
                                          << " holds no factor (sparse)");
      t->index_nonzeros();
      ++built;
    }
  }
  return built;
}

void TileMatrix::drop_nz_indexes() {
  for (auto& t : tiles_) {
    if (t) t->drop_nz_index();
  }
}

// ---- Tile-level kernels -------------------------------------------------

void tile_getrf(Tile& diag) {
  TH_CHECK(diag.rows() == diag.cols());
  diag.densify();
  diag.drop_nz_index();
  getrf_nopiv(diag.rows(), diag.dense_data(), diag.ld());
}

void tile_tstrf(Tile& target, const Tile& diag_factored) {
  target.densify();
  target.begin_nz_index();
  tile_tstrf_rows(target, diag_factored, 0, target.rows());
}

void tile_geesm(Tile& target, const Tile& diag_factored) {
  target.densify();
  target.begin_nz_index();
  tile_geesm_cols(target, diag_factored, 0, target.cols());
}

namespace {

// Calls f(j, p, u(p, j)) for every indexed entry of U in columns [c0, c1):
// column by column, rows increasing — the order of a dense scan that skips
// zeros.
template <typename F>
void for_each_u_nonzero(const Tile& u, index_t c0, index_t c1, F&& f) {
  const real_t* ud = u.dense_data();
  const index_t wpc = u.nz_words_per_col();
  for (index_t j = c0; j < c1; ++j) {
    const real_t* ucol = ud + static_cast<offset_t>(j) * u.ld();
    const std::uint64_t* bits = u.nz_col_bits(j);
    for (index_t w = 0; w < wpc; ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const index_t p = w * 64 + std::countr_zero(word);
        f(j, p, ucol[p]);
      }
    }
  }
}

// Sparse-L SSSSM: C -= L_sparse * U via the column-column method the
// paper's Executor uses — each column p of sparse L scaled by U(p, j)
// accumulates into C(:, j). Returns the flops executed.
template <bool kAtomic>
offset_t ssssm_sparse_l(real_t* cd, index_t ldc, const Tile& l,
                        const Tile& u, index_t c0, index_t c1) {
  offset_t flops = 0;
  for_each_u_nonzero(u, c0, c1, [&](index_t j, index_t p, real_t upj) {
    real_t* ccol = cd + static_cast<offset_t>(j) * ldc;
    flops += 2 * (l.col_ptr()[p + 1] - l.col_ptr()[p]);
    for (offset_t q = l.col_ptr()[p]; q < l.col_ptr()[p + 1]; ++q) {
      const real_t delta = -l.values()[q] * upj;
      if constexpr (kAtomic) {
        atomic_add(ccol[l.row_idx()[q]], delta);
      } else {
        ccol[l.row_idx()[q]] += delta;
      }
    }
  });
  return flops;
}

// Dense-L SSSSM: C(:, j) -= L(:, p) * U(p, j) per indexed U entry. The
// plain form is one SIMD axpy; the atomic form one CAS add per element,
// c + (-(l*u)), which rounds exactly like the plain c - l*u. Returns the
// flops executed.
template <bool kAtomic>
offset_t ssssm_dense_l(real_t* cd, index_t ldc, const Tile& l,
                       const Tile& u, index_t c0, index_t c1) {
  const real_t* ld = l.dense_data();
  const index_t m = l.rows();
  offset_t pairs = 0;
  for_each_u_nonzero(u, c0, c1, [&](index_t j, index_t p, real_t upj) {
    ++pairs;
    real_t* ccol = cd + static_cast<offset_t>(j) * ldc;
    const real_t* lcol = ld + static_cast<offset_t>(p) * l.ld();
    if constexpr (kAtomic) {
      for (index_t i = 0; i < m; ++i) atomic_add(ccol[i], -lcol[i] * upj);
    } else {
      simd::axpy_minus(m, lcol, upj, ccol);
    }
  });
  return 2 * static_cast<offset_t>(m) * pairs;
}

}  // namespace

offset_t tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                         const Tile& u, bool atomic, index_t c0, index_t c1) {
  TH_CHECK(l.cols() == u.rows());
  // The U operand is consumed dense in both paths (the paper gathers the
  // right operand into dense shared memory), through its nonzero index.
  TH_CHECK_MSG(u.storage() == Tile::Storage::kDense && u.nz_indexed(),
               "SSSSM requires a factored (dense, indexed) U operand");
  TH_CHECK(c0 >= 0 && c0 <= c1 && c1 <= u.cols());
  if (l.storage() == Tile::Storage::kSparse) {
    return atomic ? ssssm_sparse_l<true>(c_data, ldc, l, u, c0, c1)
                  : ssssm_sparse_l<false>(c_data, ldc, l, u, c0, c1);
  }
  return atomic ? ssssm_dense_l<true>(c_data, ldc, l, u, c0, c1)
                : ssssm_dense_l<false>(c_data, ldc, l, u, c0, c1);
}

void tile_ssssm(Tile& c, const Tile& l, const Tile& u, bool atomic) {
  TH_CHECK(l.cols() == u.rows());
  TH_CHECK(c.rows() == l.rows() && c.cols() == u.cols());
  c.densify();
  c.drop_nz_index();
  tile_ssssm_cols(c.dense_data(), c.ld(), l, u, atomic, 0, c.cols());
}

void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1) {
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK_MSG(target.storage() == Tile::Storage::kDense &&
                   target.nz_indexed(),
               "sliced TSTRF needs a prepared (dense, index begun) target");
  TH_CHECK(target.cols() == diag_factored.rows());
  TH_CHECK(r0 >= 0 && r0 <= r1 && r1 <= target.rows());
  if (r0 == r1) return;
  // trsm_upper_right treats rows independently: offsetting the base
  // pointer by r0 rows solves exactly those rows, bitwise identical to the
  // whole-tile call.
  trsm_upper_right(r1 - r0, target.cols(), diag_factored.dense_data(),
                   diag_factored.ld(), target.dense_data() + r0,
                   target.ld());
  target.index_nonzero_rows(r0, r1);
}

void tile_geesm_cols(Tile& target, const Tile& diag_factored, index_t c0,
                     index_t c1) {
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK_MSG(target.storage() == Tile::Storage::kDense &&
                   target.nz_indexed(),
               "sliced GEESM needs a prepared (dense, index begun) target");
  TH_CHECK(target.rows() == diag_factored.cols());
  TH_CHECK(c0 >= 0 && c0 <= c1 && c1 <= target.cols());
  if (c0 == c1) return;
  trsm_lower_left_unit(
      target.rows(), c1 - c0, diag_factored.dense_data(),
      diag_factored.ld(),
      target.dense_data() + static_cast<offset_t>(c0) * target.ld(),
      target.ld());
  target.index_nonzero_cols(c0, c1);
}

namespace {

// out(:, r) op= T * in(:, r) over T's indexed entries. The loops run
// column c, index word, right-hand side, set bit: each out(i, r) still
// sees its updates in increasing c, the dense scan's order.
template <SolveUpdate kOp>
void solve_update_cols(const Tile& t, const real_t* in, index_t ld_in,
                       real_t* out, index_t ld_out, index_t nrhs) {
  const index_t wpc = t.nz_words_per_col();
  for (index_t c = 0; c < t.cols(); ++c) {
    const real_t* tc = t.dense_data() + static_cast<offset_t>(c) * t.ld();
    const std::uint64_t* bits = t.nz_col_bits(c);
    for (index_t w = 0; w < wpc; ++w) {
      if (bits[w] == 0) continue;
      const real_t* tw = tc + w * 64;
      for (index_t r = 0; r < nrhs; ++r) {
        const real_t v = in[c + static_cast<offset_t>(r) * ld_in];
        if (v == 0.0) continue;
        real_t* o = out + static_cast<offset_t>(r) * ld_out + w * 64;
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
          const int i = std::countr_zero(word);
          if constexpr (kOp == SolveUpdate::kSubtract) {
            o[i] -= tw[i] * v;
          } else if constexpr (kOp == SolveUpdate::kAtomicSubtract) {
            atomic_add(o[i], -tw[i] * v);
          } else {
            o[i] += tw[i] * v;
          }
        }
      }
    }
  }
}

// out(c, r) -= sum_i T(i, c) * in(i, r), each sum over T's indexed
// entries in increasing i.
void solve_update_transposed(const Tile& t, const real_t* in, index_t ld_in,
                             real_t* out, index_t ld_out, index_t nrhs) {
  const index_t wpc = t.nz_words_per_col();
  for (index_t r = 0; r < nrhs; ++r) {
    const real_t* x = in + static_cast<offset_t>(r) * ld_in;
    real_t* o = out + static_cast<offset_t>(r) * ld_out;
    for (index_t c = 0; c < t.cols(); ++c) {
      const real_t* tc = t.dense_data() + static_cast<offset_t>(c) * t.ld();
      const std::uint64_t* bits = t.nz_col_bits(c);
      real_t acc = 0;
      for (index_t w = 0; w < wpc; ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
          const index_t i = w * 64 + std::countr_zero(word);
          acc += tc[i] * x[i];
        }
      }
      o[c] -= acc;
    }
  }
}

}  // namespace

void tile_solve_update(const Tile& t, SolveUpdate op, const real_t* in,
                       index_t ld_in, real_t* out, index_t ld_out,
                       index_t nrhs) {
  TH_CHECK_MSG(t.storage() == Tile::Storage::kDense && t.nz_indexed(),
               "solve update requires a factored (dense, indexed) tile");
  TH_CHECK(nrhs >= 0);
  switch (op) {
    case SolveUpdate::kSubtract:
      return solve_update_cols<SolveUpdate::kSubtract>(t, in, ld_in, out,
                                                       ld_out, nrhs);
    case SolveUpdate::kAtomicSubtract:
      return solve_update_cols<SolveUpdate::kAtomicSubtract>(
          t, in, ld_in, out, ld_out, nrhs);
    case SolveUpdate::kAccumulate:
      return solve_update_cols<SolveUpdate::kAccumulate>(t, in, ld_in, out,
                                                         ld_out, nrhs);
    case SolveUpdate::kSubtractTransposed:
      return solve_update_transposed(t, in, ld_in, out, ld_out, nrhs);
  }
}

}  // namespace th
