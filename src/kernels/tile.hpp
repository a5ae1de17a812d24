// Tiles: the unit of storage and computation of the PLU (PanguLU-style)
// solver core. A tile is assembled sparse (CSC within the tile) and
// densified before it is first written — the PLU backend stages every
// tile dense on the executor's lanes ahead of the first batch — so factor
// output is stored dense (simplification documented in DESIGN.md §7; the
// *cost model* uses symbolic sparsity, so scheduling behaviour is
// unaffected).
//
// A factored off-diagonal tile is mostly zeros even though it is stored
// dense, so it carries a nonzero index: one bit per entry, set where the
// entry is != 0.0. The task that writes the tile last builds it — GEESM's
// column slices for a U tile, TSTRF's row slices for an L tile — and it
// stays with the factors after the numeric phase (DESIGN.md §4 lists the
// lifecycle). SSSSM walks U's index instead of scanning the dense operand,
// and every triangular solve over the factors (tile_solve_update) walks
// the L and U indexes. Per column, the kernels visit the rows whose entry
// compares != 0.0 in increasing order — the operation sequence of a dense
// scan that skips zeros — so SSSSM is bitwise that scan, and the solves
// are bitwise the dense scan for finite inputs without -0.0 (§4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sparse/csr.hpp"
#include "symbolic/tiles.hpp"

namespace th {

class Tile {
 public:
  enum class Storage { kSparse, kDense };

  /// Construct an empty (all-zero) sparse tile.
  Tile(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  Storage storage() const { return storage_; }

  /// Structural nonzero count: exact for sparse, the index's popcount for
  /// an indexed dense tile, counted entry by entry otherwise.
  offset_t nnz() const;
  real_t density() const {
    return static_cast<real_t>(nnz()) /
           (static_cast<real_t>(rows_) * static_cast<real_t>(cols_));
  }

  /// Insert entries while building (sparse storage only, before freeze()).
  void insert(index_t r, index_t c, real_t v);
  /// Sort/compress the inserted entries into CSC form.
  void freeze();

  /// Convert to dense column-major storage (no-op if already dense).
  void densify();

  /// Mutable dense buffer; requires dense storage.
  real_t* dense_data();
  const real_t* dense_data() const;
  index_t ld() const { return rows_; }

  /// Move the dense buffer out (out-of-core spill, src/mem). Requires
  /// dense storage; the tile keeps its shape but every dense access until
  /// the matching adopt_dense() is invalid.
  std::vector<real_t> release_dense();
  /// Install a rows()*cols() column-major buffer as the dense storage —
  /// the inverse of release_dense(), also used to restore a spilled
  /// payload byte-exact.
  void adopt_dense(std::vector<real_t> data);

  // ---- Nonzero index (dense storage only) -------------------------------
  //
  // Bit r of column c's words is set iff entry (r, c) != 0.0: NaN and Inf
  // are indexed, +0.0 and -0.0 are not. Columns are padded to whole 64-bit
  // words, so distinct columns never share a word and disjoint column
  // ranges can be indexed concurrently; disjoint row ranges share words
  // and merge theirs with an atomic OR. Only code that owns the tile
  // exclusively creates or frees the index — begin_nz_index(),
  // index_nonzeros(), drop_nz_index(), and release_dense()/adopt_dense(),
  // which drop it — never concurrent slices. Sparse tiles have none.

  /// Whether the index is present. Writers to the dense buffer through
  /// dense_data() must drop or rebuild it.
  bool nz_indexed() const { return !nz_bits_.empty(); }
  /// Exclusive: allocate an all-clear index and mark it present. The
  /// caller then fills every column with index_nonzero_cols() (or every
  /// row with index_nonzero_rows()) before any reader runs — the GEESM and
  /// TSTRF slices that write a factor tile do exactly that.
  void begin_nz_index();
  /// Index columns [c0, c1) from the dense buffer. Safe to call
  /// concurrently for disjoint column ranges after begin_nz_index().
  void index_nonzero_cols(index_t c0, index_t c1);
  /// OR the bits of rows [r0, r1) into every column's words (relaxed
  /// atomic OR, one per word the rows touch). Safe to call concurrently
  /// for disjoint row ranges after begin_nz_index().
  void index_nonzero_rows(index_t r0, index_t r1);
  /// Exclusive: begin_nz_index() plus every column.
  void index_nonzeros();
  /// Exclusive: forget and free the index.
  void drop_nz_index();
  /// 64-bit words per column of the index.
  index_t nz_words_per_col() const { return (rows_ + 63) / 64; }
  /// Column c's index words; requires nz_indexed().
  const std::uint64_t* nz_col_bits(index_t c) const {
    return nz_bits_.data() + static_cast<std::size_t>(c) * nz_words_per_col();
  }
  /// Indexed entries of the whole tile; requires nz_indexed().
  offset_t nz_indexed_count() const;

  /// Sparse view; requires sparse storage.
  const std::vector<offset_t>& col_ptr() const { return col_ptr_; }
  const std::vector<index_t>& row_idx() const { return row_idx_; }
  const std::vector<real_t>& values() const { return values_; }

  /// Read one element regardless of storage (slow; tests only).
  real_t at(index_t r, index_t c) const;

 private:
  index_t rows_;
  index_t cols_;
  Storage storage_ = Storage::kSparse;
  bool frozen_ = false;
  // Sparse (CSC) representation.
  std::vector<offset_t> col_ptr_;
  std::vector<index_t> row_idx_;
  std::vector<real_t> values_;
  std::vector<index_t> pending_cols_;  // column of each inserted entry,
                                       // consumed by freeze()
  // Dense representation (column-major, ld = rows_).
  std::vector<real_t> dense_;
  // Nonzero index of dense_, cols_ * nz_words_per_col() words; empty when
  // absent (see nz_indexed()).
  std::vector<std::uint64_t> nz_bits_;
};

/// The tiled matrix: owns one Tile per structurally present block of the
/// TilePattern (absent blocks stay null and are structurally zero).
class TileMatrix {
 public:
  TileMatrix(const Csr& a, const TilePattern& pattern);

  index_t nt() const { return pattern_.nt; }
  index_t tile_size() const { return pattern_.tile_size; }
  const TilePattern& pattern() const { return pattern_; }

  bool has(index_t i, index_t j) const { return tile(i, j) != nullptr; }
  Tile* tile(index_t i, index_t j);
  const Tile* tile(index_t i, index_t j) const;

  /// Exact nnz over all tiles (post-factorisation this is nnz(L+U) with the
  /// diagonal counted once). Indexed tiles count their index bits.
  offset_t total_nnz() const;

  /// Index every off-diagonal tile that carries no index (all must be
  /// dense): the factors' state the solves require. Returns how many tiles
  /// it indexed — none after a numeric run, whose GEESM/TSTRF slices index
  /// their outputs; every one after tiles were adopted from storage.
  /// Serial.
  index_t index_factors();

  /// Free every tile's nonzero index (a numeric run that threw leaves
  /// partial factors, whose indexes must not outlive them). Serial.
  void drop_nz_indexes();

 private:
  TilePattern pattern_;
  std::vector<std::unique_ptr<Tile>> tiles_;
};

// ---- Tile-level numeric kernels (the four task bodies) -----------------

// The whole-tile forms densify their target and drop its nonzero index
// (TSTRF and GEESM rebuild it: their outputs are the L and U factors).

/// GETRF: in-place LU of a diagonal tile.
void tile_getrf(Tile& diag);

/// TSTRF: L(i,k) = A(i,k) * U(k,k)^{-1}; leaves the target indexed.
void tile_tstrf(Tile& target, const Tile& diag_factored);

/// GEESM: U(k,j) = L(k,k)^{-1} * A(k,j); leaves the target indexed.
void tile_geesm(Tile& target, const Tile& diag_factored);

/// SSSSM: C(i,j) -= L(i,k) * U(k,j), walking U's nonzero index (U must
/// be indexed, as for tile_ssssm_cols). Sparse L tiles use the column-column sparse kernel
/// from the paper's Executor; dense L tiles take one axpy per indexed U
/// entry. With `atomic` set, accumulation into C uses atomic adds so
/// conflicting updates may run concurrently within a batch.
void tile_ssssm(Tile& c, const Tile& l, const Tile& u, bool atomic);

// ---- Block-sliced (re-entrant) kernel forms ----------------------------
//
// One CUDA block per target row (TSTRF) or column (GEESM/SSSSM), as priced
// in Task::cost.cuda_blocks. Each kernel iterates its rows/columns
// independently, so executing a slice [b0, b1) is bitwise identical to the
// corresponding part of the whole-tile kernel — concurrent slices of one
// task need no synchronisation beyond a densified target.

/// TSTRF restricted to target rows [r0, r1), then ORs those rows into the
/// target's nonzero index. Target must be dense, with begin_nz_index()
/// called (the PLU backend's staging and prepare_task, before any slice
/// runs).
void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1);

/// GEESM restricted to target columns [c0, c1), then indexes the nonzeros
/// of those columns. Target must be dense, with begin_nz_index() called
/// (the PLU backend's staging and prepare_task, before any slice runs).
void tile_geesm_cols(Tile& target, const Tile& diag_factored, index_t c0,
                     index_t c1);

/// SSSSM on target columns [c0, c1), accumulating into `c_data` (leading
/// dimension ldc, same shape as the target tile) — either the target's
/// dense storage or a deterministic-mode scratch buffer. `atomic` selects
/// atomic accumulation for write-conflicting batch members. U must be
/// indexed (nz_indexed()); only its indexed entries are visited, each as
/// one column update of C in increasing row order. Returns the flops
/// executed: 2 per L(:, p) entry updated, for every indexed U(p, j).
offset_t tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                         const Tile& u, bool atomic, index_t c0, index_t c1);

// ---- Triangular-solve update -------------------------------------------

/// How tile_solve_update applies a factor tile T to its output.
enum class SolveUpdate : char {
  kSubtract,            // out(i) -= T(i, c) * in(c), plain writes
  kAtomicSubtract,      // the same through atomic_add: lanes may race
  kAccumulate,          // out(i) += T(i, c) * in(c): det-mode scratch
  kSubtractTransposed,  // out(c) -= sum_i T(i, c) * in(i), one sum per c
};

/// The off-diagonal block step of every triangular solve over the PLU
/// factors, for `nrhs` column-major vectors (leading dimensions ld_in and
/// ld_out; in and out must not overlap). T must be dense and indexed;
/// only its indexed entries are visited. The non-transposed forms skip
/// in(c) == 0.0 and update each out(i) in increasing c; the transposed
/// form sums in increasing i. Relative to the dense scan this omits only
/// `x -/+ (+-0.0)` steps, which change nothing when every in and out value
/// is finite and no out value is -0.0 (DESIGN.md §4).
void tile_solve_update(const Tile& t, SolveUpdate op, const real_t* in,
                       index_t ld_in, real_t* out, index_t ld_out,
                       index_t nrhs);

}  // namespace th
