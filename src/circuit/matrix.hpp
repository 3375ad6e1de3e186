// Linear-algebra core of the MNA solver: a dense matrix, the dense
// partial-pivoting LU, and a sparse replay of that same LU.
//
// The chip's MNA matrix is small but sparse (41 unknowns, 138 of 1,681
// entries nonzero) and a transient read factors it hundreds of thousands of
// times with an unchanged structure.  SparseLu keeps the dense storage and
// performs exactly lu_solve_in_place's floating-point operations minus those
// with an exact-zero operand, visiting only the entries a cached elimination
// plan marks as possibly nonzero; for finite input its solution is
// bit-identical to the dense one.  lu_solve_in_place remains the complex AC
// solver and the reference the sparse path is tested against.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace rfabm::circuit {

/// Dense square-capable matrix of element type T (double or complex<double>).
template <typename T>
class DenseMatrix {
  public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    const T& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    /// Row-major storage, rows() * cols() elements.
    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    /// Reset every element to zero, keeping the shape.
    void clear() { std::fill(data_.begin(), data_.end(), T{}); }

    /// Resize (destructive) and zero.
    void resize(std::size_t rows, std::size_t cols) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, T{});
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

/// Thrown when LU factorization meets a numerically singular pivot.
class SingularMatrixError : public std::runtime_error {
  public:
    explicit SingularMatrixError(std::size_t column)
        : std::runtime_error("singular matrix at column " + std::to_string(column)),
          column_(column) {}
    std::size_t column() const { return column_; }

  private:
    std::size_t column_;
};

namespace detail {
inline double magnitude(double v) { return std::fabs(v); }
inline double magnitude(const std::complex<double>& v) { return std::abs(v); }
/// Pivots below this magnitude make a matrix singular.
inline constexpr double kSingularPivot = 1e-300;
}  // namespace detail

/// In-place LU factorization with partial pivoting followed by solve.
/// @p a is destroyed; @p b is replaced by the solution.  Throws
/// SingularMatrixError when a pivot underflows.
template <typename T>
void lu_solve_in_place(DenseMatrix<T>& a, std::vector<T>& b) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n) {
        throw std::invalid_argument("lu_solve_in_place: shape mismatch");
    }
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t piv = col;
        double best = detail::magnitude(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double m = detail::magnitude(a(r, col));
            if (m > best) {
                best = m;
                piv = r;
            }
        }
        if (best < detail::kSingularPivot) throw SingularMatrixError(col);
        if (piv != col) {
            for (std::size_t c = col; c < n; ++c) std::swap(a(piv, c), a(col, c));
            std::swap(b[piv], b[col]);
        }
        const T inv_pivot = T{1} / a(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const T factor = a(r, col) * inv_pivot;
            if (factor == T{}) continue;
            a(r, col) = T{};
            for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
        T acc = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * b[c];
        b[ri] = acc / a(ri, ri);
    }
}

/// Which entries of an n x n matrix may be nonzero: one bitset of columns
/// per row, in 64-bit words, for any n.
class SparsityPattern {
  public:
    /// Resize to @p n x @p n with no entry set.
    void reset(std::size_t n) {
        n_ = n;
        words_ = (n + 63) / 64;
        bits_.assign(n * words_, 0);
    }
    /// Unset every entry, keeping the size.
    void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

    std::size_t size() const { return n_; }

    void mark(std::size_t r, std::size_t c) { bits_[r * words_ + c / 64] |= bit(c); }
    bool test(std::size_t r, std::size_t c) const {
        return (bits_[r * words_ + c / 64] & bit(c)) != 0;
    }

    /// True when every entry set here is set in @p other (of the same size).
    bool subset_of(const SparsityPattern& other) const {
        for (std::size_t i = 0; i < bits_.size(); ++i) {
            if ((bits_[i] & ~other.bits_[i]) != 0) return false;
        }
        return true;
    }
    /// Set every entry that is set in @p other (of the same size).
    void merge(const SparsityPattern& other) {
        for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
    }
    /// Set in row @p dst every column set in row @p src.
    void merge_row(std::size_t dst, std::size_t src) {
        for (std::size_t w = 0; w < words_; ++w) bits_[dst * words_ + w] |= bits_[src * words_ + w];
    }
    /// Append the columns set in row @p r right of column @p c, ascending.
    void columns_after(std::size_t r, std::size_t c, std::vector<std::uint32_t>& out) const {
        const std::size_t first = c + 1;
        for (std::size_t w = first / 64; w < words_; ++w) {
            std::uint64_t word = bits_[r * words_ + w];
            if (w == first / 64) word &= ~std::uint64_t{0} << (first % 64);
            while (word != 0) {
                out.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
                word &= word - 1;
            }
        }
    }

  private:
    static std::uint64_t bit(std::size_t c) { return std::uint64_t{1} << (c % 64); }

    std::size_t n_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;
};

/// Real partial-pivoting LU that replays a cached elimination plan.
///
/// Rows stay where they were stamped; a row swap permutes only the position
/// order.  The plan records, per column k: the pivot row, the candidate rows
/// below position k that may be nonzero in column k (in position order),
/// the rows eliminated below the pivot, and the pivot row's columns right of
/// k, which are also U row k's columns in back substitution.
///
/// A solve replays the plan while the touched pattern lies inside the
/// recorded one, and otherwise re-plans on their union.  Every pivot is
/// re-derived with the dense rule: the first strict maximum of |a(r, k)| in
/// position order, searched over the candidate rows only, since an exact
/// zero never wins.  A pivot that moved re-plans from its column onward.
/// Recording and replay share one elimination kernel, so no result depends
/// on whether the plan was reused.
///
/// Bit-identity with lu_solve_in_place: every skipped operation has an
/// exact +0.0 operand, x - f * 0 == x unless x is -0.0, and -0.0 never
/// appears in a matrix or right-hand side assembled by += / -= from +0.0,
/// nor in the entries elimination derives from them.  With non-finite input
/// the dense solve also spreads NaN through 0 * NaN into unrelated unknowns;
/// this one confines it to the unknowns coupled to the poisoned entries.
class SparseLu {
  public:
    /// Solve @p a x = @p b into @p x.  @p touched must cover every nonzero
    /// entry of @p a.  @p a and @p b are consumed.  Throws
    /// SingularMatrixError with the column lu_solve_in_place would report.
    void solve(DenseMatrix<double>& a, std::vector<double>& b, const SparsityPattern& touched,
               std::vector<double>& x) {
        const std::size_t n = a.rows();
        if (a.cols() != n || b.size() != n || touched.size() != n) {
            throw std::invalid_argument("SparseLu::solve: shape mismatch");
        }
        if (pattern_.size() != n) {
            pattern_.reset(n);
            pivot_.assign(n, 0);
            cand_begin_.assign(n + 1, 0);
            elim_begin_.assign(n + 1, 0);
            ucol_begin_.assign(n + 1, 0);
            row_of_.resize(n);
            pos_of_.resize(n);
            planned_ = 0;
        }
        if (!touched.subset_of(pattern_)) {
            pattern_.merge(touched);
            planned_ = 0;
        }
        std::iota(row_of_.begin(), row_of_.end(), 0u);
        std::iota(pos_of_.begin(), pos_of_.end(), 0u);
        ++solves_;
        bool recorded = false;
        double* const d = a.data();
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t front = row_of_[k];
            if (k >= planned_) {
                if (!recorded) symbolic_state(k);
                record_candidates(k);
                recorded = true;
            }
            std::uint32_t piv = front;
            double best = std::fabs(d[front * n + k]);
            for (std::uint32_t i = cand_begin_[k]; i < cand_begin_[k + 1]; ++i) {
                const std::uint32_t r = cand_[i];
                const double m = std::fabs(d[r * n + k]);
                if (m > best) {
                    best = m;
                    piv = r;
                }
            }
            if (best < detail::kSingularPivot) throw SingularMatrixError(k);
            if (k < planned_ && piv != pivot_[k]) {
                // Same symbolic state as when column k was recorded, so its
                // candidates stand; only the elimination is re-planned.
                planned_ = k;
                symbolic_state(k);
                recorded = true;
            }
            const std::uint32_t at = pos_of_[piv];
            row_of_[at] = front;
            pos_of_[front] = at;
            row_of_[k] = piv;
            pos_of_[piv] = static_cast<std::uint32_t>(k);
            if (k >= planned_) record_elimination(k, piv);
            eliminate(d, n, b, k);
        }
        if (recorded) ++plans_;
        x.resize(n);
        for (std::size_t k = n; k-- > 0;) {
            const double* prow = d + static_cast<std::size_t>(pivot_[k]) * n;
            double acc = b[pivot_[k]];
            for (std::uint32_t i = ucol_begin_[k]; i < ucol_begin_[k + 1]; ++i) {
                acc -= prow[ucol_[i]] * x[ucol_[i]];
            }
            x[k] = acc / prow[k];
        }
    }

    /// Solves run, and solves that recorded at least one plan column.
    std::uint64_t solves() const { return solves_; }
    std::uint64_t plans() const { return plans_; }
    /// Plan columns recorded over all solves.
    std::uint64_t planned_columns() const { return planned_columns_; }

  private:
    /// Numeric elimination of column @p k below its (already placed) pivot.
    void eliminate(double* d, std::size_t n, std::vector<double>& b, std::size_t k) const {
        const std::uint32_t piv = pivot_[k];
        const double* prow = d + static_cast<std::size_t>(piv) * n;
        const double inv_pivot = 1.0 / prow[k];
        const std::uint32_t* cols = ucol_.data() + ucol_begin_[k];
        const std::uint32_t* cols_end = ucol_.data() + ucol_begin_[k + 1];
        const std::uint32_t* rows = elim_.data() + elim_begin_[k];
        const std::uint32_t* rows_end = elim_.data() + elim_begin_[k + 1];
        const double b_pivot = b[piv];
        for (const std::uint32_t* r = rows; r != rows_end; ++r) {
            double* row = d + static_cast<std::size_t>(*r) * n;
            const double factor = row[k] * inv_pivot;
            if (factor == 0.0) continue;
            for (const std::uint32_t* c = cols; c != cols_end; ++c) row[*c] -= factor * prow[*c];
            b[*r] -= factor * b_pivot;
        }
    }

    /// Rebuild sym_, the pattern of the active rows before column @p k is
    /// eliminated, from the recorded pattern and the plan of columns < k.
    /// Bits left of a row's current column are stale and never read.
    void symbolic_state(std::size_t k) {
        sym_ = pattern_;
        for (std::size_t c = 0; c < k; ++c) {
            for (std::uint32_t i = elim_begin_[c]; i < elim_begin_[c + 1]; ++i) {
                sym_.merge_row(elim_[i], pivot_[c]);
            }
        }
    }

    void record_candidates(std::size_t k) {
        cand_.resize(cand_begin_[k]);
        for (std::size_t p = k + 1; p < row_of_.size(); ++p) {
            if (sym_.test(row_of_[p], k)) cand_.push_back(row_of_[p]);
        }
        cand_begin_[k + 1] = static_cast<std::uint32_t>(cand_.size());
    }

    /// Record column @p k's elimination once pivot @p piv sits at position k.
    void record_elimination(std::size_t k, std::uint32_t piv) {
        pivot_[k] = piv;
        elim_.resize(elim_begin_[k]);
        for (std::size_t p = k + 1; p < row_of_.size(); ++p) {
            const std::uint32_t r = row_of_[p];
            if (!sym_.test(r, k)) continue;
            elim_.push_back(r);
            sym_.merge_row(r, piv);  // fill-in
        }
        elim_begin_[k + 1] = static_cast<std::uint32_t>(elim_.size());
        ucol_.resize(ucol_begin_[k]);
        sym_.columns_after(piv, k, ucol_);
        ucol_begin_[k + 1] = static_cast<std::uint32_t>(ucol_.size());
        planned_ = k + 1;
        ++planned_columns_;
    }

    SparsityPattern pattern_;  ///< union of every touched pattern solved
    SparsityPattern sym_;      ///< active-row pattern while recording
    std::size_t planned_ = 0;  ///< leading columns whose plan is valid
    std::vector<std::uint32_t> pivot_;
    std::vector<std::uint32_t> cand_begin_, cand_;  ///< per column, CSR-style
    std::vector<std::uint32_t> elim_begin_, elim_;
    std::vector<std::uint32_t> ucol_begin_, ucol_;
    std::vector<std::uint32_t> row_of_;  ///< row at each position
    std::vector<std::uint32_t> pos_of_;  ///< position of each row
    std::uint64_t solves_ = 0;
    std::uint64_t plans_ = 0;
    std::uint64_t planned_columns_ = 0;
};

}  // namespace rfabm::circuit
