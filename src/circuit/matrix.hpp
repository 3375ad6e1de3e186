// Linear-algebra core of the MNA solver: a dense matrix, the dense
// partial-pivoting LU, and a sparse replay of that same LU.
//
// The chip's MNA matrix is small but sparse (41 unknowns, 140 of 1,681
// entries stamped) and a transient read factors it hundreds of thousands of
// times with an unchanged structure.  SparseLu keeps the dense storage and
// performs exactly lu_solve_in_place's floating-point operations minus those
// with an exact-zero operand, visiting only the entries a cached elimination
// plan marks as possibly nonzero; for finite input its solution is
// bit-identical to the dense one.  Between Newton iterations only the 13
// entries the detector MOSFETs stamp change, so SparseLu keeps its last
// elimination and, while every other entry is bitwise unchanged, redoes
// only their elimination cone (644 of 1,262 row updates on the chip).  A
// caller that knows nothing else changed (MnaSystem's assembly plan) says
// so, and the solve skips the checks that would prove it.
// lu_solve_in_place remains the complex AC solver and the reference the
// sparse path is tested against.
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

/// Real partial-pivoting LU that replays a cached elimination plan and,
/// between solves that change only its dynamic entries, re-eliminates just
/// their cone.
///
/// Rows stay where they were stamped; a row swap permutes only the position
/// order.  The plan records, per column k: the pivot row, the row at
/// position k before the swap (the front row), the candidate rows below
/// position k that may be nonzero in column k (in position order), the rows
/// eliminated below the pivot, and the pivot row's columns right of k, which
/// are also U row k's columns in back substitution.
///
/// The full replay runs the plan while the stamped pattern lies inside the
/// recorded one, and otherwise re-plans on their union.  Every pivot is
/// re-derived with the dense rule: the first strict maximum of |a(r, k)| in
/// position order, searched over the front and candidate rows only, since an
/// exact zero never wins.  A pivot that moved re-plans from its column
/// onward.  Recording and replay share one elimination kernel, so no result
/// depends on whether the plan was reused.
///
/// Incremental refactorization.  The solver keeps the eliminated matrix, the
/// factors and reciprocal pivots of its last solve, and the other entries of
/// its last full replay's input.  Once per plan, on the first full replay
/// that reuses it, it compiles the cone of the dynamic entries (the entries
/// nonlinear devices stamp): every entry whose eliminated value can depend
/// on a dynamic input, through a factor, a pivot or a pivot-row entry.
/// When every other entry of the recorded
/// pattern is bitwise equal to the last full replay's input, a solve
/// restarts the cone's entries from the new input and redoes, column by
/// column, only the updates that land in the cone and the factors and
/// reciprocal pivots read from it; a column whose pivot search can see a
/// cone entry re-runs it, and a moved pivot falls back to the full replay.
/// Entries outside the cone have the same inputs and operands as in the
/// solve that computed them, and entries inside are recomputed with the full
/// replay's operations in the same order, so the result does not depend on
/// which path ran.  Forward and back substitution always run in full.
///
/// Bit-identity with lu_solve_in_place: every skipped operation has an
/// exact +0.0 operand, x - f * 0 == x unless x is -0.0, and -0.0 never
/// appears in a matrix or right-hand side assembled by += / -= from +0.0,
/// nor in the entries elimination derives from them.  With non-finite input
/// the dense solve also spreads NaN through 0 * NaN into unrelated unknowns;
/// this one confines it to the unknowns coupled to the poisoned entries.
class SparseLu {
  public:
    /// Solve @p a x = @p b into @p x.  @p touched and @p dynamic together
    /// must cover every nonzero entry of @p a; @p dynamic holds the entries
    /// expected to change from one solve to the next.  Any split gives the
    /// same result; the closer @p dynamic matches the entries that do
    /// change, the more solves refresh.  @p a is left unchanged and @p b is
    /// consumed.  Throws SingularMatrixError with the column
    /// lu_solve_in_place would report.
    ///
    /// @p unchanged is the caller's guarantee that @p touched and @p dynamic
    /// are the patterns of the previous solve and that every entry of @p a
    /// outside @p dynamic is bitwise what it was then.  The solve then skips
    /// the pattern checks and the comparison of the recorded inputs that
    /// would prove it.
    void solve(const DenseMatrix<double>& a, std::vector<double>& b,
               const SparsityPattern& touched, const SparsityPattern& dynamic,
               std::vector<double>& x, bool unchanged = false) {
        const std::size_t n = a.rows();
        if (a.cols() != n || b.size() != n || touched.size() != n || dynamic.size() != n) {
            throw std::invalid_argument("SparseLu::solve: shape mismatch");
        }
        if (pattern_.size() != n) {
            resize(n);
            unchanged = false;
        }
        if (!unchanged) {
            if (!touched.subset_of(pattern_) || !dynamic.subset_of(pattern_)) {
                pattern_.merge(touched);
                pattern_.merge(dynamic);
                planned_ = 0;
                scheduled_ = false;
            }
            if (!dynamic.subset_of(dynamic_)) {
                dynamic_.merge(dynamic);
                scheduled_ = false;
            }
        }
        ++solves_;
        bool refreshed = false;
        if (scheduled_ && cached_ && (unchanged || inputs_unchanged(a.data()))) {
            rhs_ = b;
            refreshed = refresh(a.data(), b);
            if (!refreshed) b = rhs_;
        }
        if (refreshed) {
            ++refreshes_;
        } else {
            factor(a, b);
        }
        back_substitute(b, x);
    }

    /// Solves run, solves that recorded at least one plan column, and
    /// solves that re-eliminated only the cone of the dynamic entries.
    std::uint64_t solves() const { return solves_; }
    std::uint64_t plans() const { return plans_; }
    std::uint64_t refreshes() const { return refreshes_; }
    /// Plan columns recorded over all solves.
    std::uint64_t planned_columns() const { return planned_columns_; }

  private:
    void resize(std::size_t n) {
        pattern_.reset(n);
        dynamic_.reset(n);
        pivot_.assign(n, 0);
        front_.assign(n, 0);
        cand_begin_.assign(n + 1, 0);
        elim_begin_.assign(n + 1, 0);
        ucol_begin_.assign(n + 1, 0);
        row_of_.resize(n);
        pos_of_.resize(n);
        inv_pivot_.assign(n, 0.0);
        lu_.resize(n, n);
        planned_ = 0;
        scheduled_ = false;
        cached_ = false;
    }

    /// The full replay: factor a copy of @p a along the plan (recording it
    /// from the first column that needs it) and forward-substitute @p b,
    /// keeping the eliminated matrix, the factors, the reciprocal pivots and
    /// the entries of @p a outside the dynamic pattern.
    void factor(const DenseMatrix<double>& a, std::vector<double>& b) {
        const std::size_t n = a.rows();
        cached_ = false;
        double* const d = lu_.data();
        std::copy(a.data(), a.data() + n * n, d);
        std::iota(row_of_.begin(), row_of_.end(), 0u);
        std::iota(pos_of_.begin(), pos_of_.end(), 0u);
        bool recorded = false;
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t front = row_of_[k];
            if (k >= planned_) {
                if (!recorded) symbolic_state(k);
                record_candidates(k);
                recorded = true;
            }
            const std::uint32_t piv = find_pivot(d, n, k, front);
            if (k < planned_ && piv != pivot_[k]) {
                // Same symbolic state as when column k was recorded, so its
                // candidates stand; only the elimination is re-planned.
                planned_ = k;
                symbolic_state(k);
                recorded = true;
            }
            front_[k] = front;
            const std::uint32_t at = pos_of_[piv];
            row_of_[at] = front;
            pos_of_[front] = at;
            row_of_[k] = piv;
            pos_of_[piv] = static_cast<std::uint32_t>(k);
            if (k >= planned_) record_elimination(k, piv);
            eliminate(d, n, b, k);
        }
        if (recorded) {
            ++plans_;
        } else if (!scheduled_) {
            // Compile once a plan has served a second solve: while pivots
            // still move (a DC solve converging from zero), every plan is
            // replaced before it could refresh.
            compile_refresh();
        }
        if (scheduled_) {
            for (std::size_t i = 0; i < static_.size(); ++i) {
                static_input_[i] = a.data()[static_[i]];
            }
        }
        cached_ = true;
    }

    /// The dense pivot rule for column @p k: the first strict maximum of
    /// |a(r, k)| over the front row, then the candidates in position order.
    std::uint32_t find_pivot(const double* d, std::size_t n, std::size_t k,
                             std::uint32_t front) const {
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
        return piv;
    }

    /// Numeric elimination of column @p k below its (already placed) pivot,
    /// keeping the reciprocal pivot and every factor.
    void eliminate(double* d, std::size_t n, std::vector<double>& b, std::size_t k) {
        const std::uint32_t piv = pivot_[k];
        const double* prow = d + static_cast<std::size_t>(piv) * n;
        const double inv_pivot = 1.0 / prow[k];
        inv_pivot_[k] = inv_pivot;
        const std::uint32_t* cols = ucol_.data() + ucol_begin_[k];
        const std::uint32_t* cols_end = ucol_.data() + ucol_begin_[k + 1];
        const double b_pivot = b[piv];
        for (std::uint32_t s = elim_begin_[k]; s < elim_begin_[k + 1]; ++s) {
            double* row = d + static_cast<std::size_t>(elim_[s]) * n;
            const double factor = row[k] * inv_pivot;
            factor_[s] = factor;
            if (factor == 0.0) continue;
            for (const std::uint32_t* c = cols; c != cols_end; ++c) row[*c] -= factor * prow[*c];
            b[elim_[s]] -= factor * b_pivot;
        }
    }

    /// True when every recorded entry outside the dynamic pattern equals,
    /// bit for bit, its value in the last full replay's input.
    bool inputs_unchanged(const double* in) const {
        const std::uint32_t* const entries = static_.data();
        const double* const kept = static_input_.data();
        for (std::size_t i = 0; i < static_.size(); ++i) {
            if (std::bit_cast<std::uint64_t>(in[entries[i]]) !=
                std::bit_cast<std::uint64_t>(kept[i])) {
                return false;
            }
        }
        return true;
    }

    /// Re-eliminate the cone of the dynamic entries in the kept matrix from
    /// the new input @p in, and forward-substitute @p rhs with the kept and
    /// the recomputed factors.  False when a pivot moved; @p rhs is then
    /// partly substituted and the caller runs the full replay.
    bool refresh(const double* in, std::vector<double>& rhs) {
        const std::size_t n = lu_.rows();
        double* const d = lu_.data();
        double* const b = rhs.data();
        double* const factors = factor_.data();
        const std::uint32_t* const elim = elim_.data();
        cached_ = false;
        for (const std::uint32_t i : restart_) d[i] = in[i];
        const RefreshColumn* column = refresh_columns_.data();
        const RefreshColumn* const columns_end = column + refresh_columns_.size();
        const RefreshRow* row = refresh_rows_.data();
        const std::uint32_t* col = refresh_cols_.data();
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t piv = pivot_[k];
            if (column != columns_end && column->k == k) {
                if (column->search && find_pivot(d, n, k, front_[k]) != piv) return false;
                const double* prow = d + static_cast<std::size_t>(piv) * n;
                double inv_pivot = inv_pivot_[k];
                if (column->pivot) inv_pivot_[k] = inv_pivot = 1.0 / prow[k];
                for (const RefreshRow* rows_end = refresh_rows_.data() + column->rows_end;
                     row != rows_end; ++row) {
                    double* target = d + row->offset;
                    double factor = factors[row->slot];
                    if (row->factor) factors[row->slot] = factor = target[k] * inv_pivot;
                    const std::uint32_t* cols_end = refresh_cols_.data() + row->cols_end;
                    if (factor != 0.0) {
                        for (; col != cols_end; ++col) target[*col] -= factor * prow[*col];
                    }
                    col = cols_end;
                }
                ++column;
            }
            const double b_pivot = b[piv];
            for (std::uint32_t s = elim_begin_[k]; s < elim_begin_[k + 1]; ++s) {
                const double factor = factors[s];
                if (factor != 0.0) b[elim[s]] -= factor * b_pivot;
            }
        }
        cached_ = true;
        return true;
    }

    void back_substitute(const std::vector<double>& rhs, std::vector<double>& solution) const {
        const std::size_t n = rhs.size();
        solution.resize(n);
        const double* const d = lu_.data();
        const double* const b = rhs.data();
        const std::uint32_t* const cols = ucol_.data();
        double* const x = solution.data();
        for (std::size_t k = n; k-- > 0;) {
            const double* prow = d + static_cast<std::size_t>(pivot_[k]) * n;
            double acc = b[pivot_[k]];
            for (std::uint32_t i = ucol_begin_[k]; i < ucol_begin_[k + 1]; ++i) {
                acc -= prow[cols[i]] * x[cols[i]];
            }
            x[k] = acc / prow[k];
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
        factor_.resize(elim_.size());
        ucol_.resize(ucol_begin_[k]);
        sym_.columns_after(piv, k, ucol_);
        ucol_begin_[k + 1] = static_cast<std::uint32_t>(ucol_.size());
        planned_ = k + 1;
        scheduled_ = false;
        ++planned_columns_;
    }

    /// Compile the refresh schedule of the current plan and dynamic
    /// pattern.  The cone starts as the dynamic entries; walking the plan in
    /// column order, an update of row r at column k with a factor read from
    /// the cone (entry (r, k) or the pivot) puts all of row r's updated
    /// entries in it, and otherwise each entry whose pivot-row operand is in
    /// it.  Every entry is read only after its last update, so one pass
    /// closes the cone; a second pass lists every update that lands in it.
    void compile_refresh() {
        const std::size_t n = pattern_.size();
        SparsityPattern cone = dynamic_;
        std::size_t updates = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t piv = pivot_[k];
            const bool pivot_in_cone = cone.test(piv, k);
            updates += std::size_t{elim_begin_[k + 1] - elim_begin_[k]} *
                       (ucol_begin_[k + 1] - ucol_begin_[k]);
            for (std::uint32_t s = elim_begin_[k]; s < elim_begin_[k + 1]; ++s) {
                const std::uint32_t r = elim_[s];
                const bool factor_in_cone = pivot_in_cone || cone.test(r, k);
                for (std::uint32_t i = ucol_begin_[k]; i < ucol_begin_[k + 1]; ++i) {
                    if (factor_in_cone || cone.test(piv, ucol_[i])) cone.mark(r, ucol_[i]);
                }
            }
        }
        // Every stamped or filled entry is an L, U or pivot entry of the plan.
        const std::size_t entries = elim_.size() + ucol_.size() + n;
        static_.clear();
        static_.reserve(entries);
        restart_.clear();
        restart_.reserve(entries);
        for (std::uint32_t r = 0; r < n; ++r) {
            for (std::uint32_t c = 0; c < n; ++c) {
                const auto i = static_cast<std::uint32_t>(r * n + c);
                if (cone.test(r, c)) restart_.push_back(i);
                if (pattern_.test(r, c) && !dynamic_.test(r, c)) static_.push_back(i);
            }
        }
        static_input_.resize(static_.size());
        refresh_columns_.clear();
        refresh_columns_.reserve(n);
        refresh_rows_.clear();
        refresh_rows_.reserve(elim_.size());
        refresh_cols_.clear();
        refresh_cols_.reserve(updates);
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t piv = pivot_[k];
            bool search = cone.test(front_[k], k);
            for (std::uint32_t i = cand_begin_[k]; i < cand_begin_[k + 1]; ++i) {
                search = search || cone.test(cand_[i], k);
            }
            const bool pivot_in_cone = cone.test(piv, k);
            const std::size_t first_row = refresh_rows_.size();
            for (std::uint32_t s = elim_begin_[k]; s < elim_begin_[k + 1]; ++s) {
                const std::uint32_t r = elim_[s];
                const bool factor_in_cone = pivot_in_cone || cone.test(r, k);
                const std::size_t first_col = refresh_cols_.size();
                for (std::uint32_t i = ucol_begin_[k]; i < ucol_begin_[k + 1]; ++i) {
                    if (cone.test(r, ucol_[i])) refresh_cols_.push_back(ucol_[i]);
                }
                if (factor_in_cone || refresh_cols_.size() > first_col) {
                    refresh_rows_.push_back({s, static_cast<std::uint32_t>(r * n), factor_in_cone,
                                             static_cast<std::uint32_t>(refresh_cols_.size())});
                }
            }
            if (search || pivot_in_cone || refresh_rows_.size() > first_row) {
                refresh_columns_.push_back({static_cast<std::uint32_t>(k), search, pivot_in_cone,
                                            static_cast<std::uint32_t>(refresh_rows_.size())});
            }
        }
        scheduled_ = true;
    }

    /// A plan column the refresh revisits: whether its pivot search can see
    /// a cone entry, whether the pivot is in the cone, and the end of its
    /// rows in refresh_rows_.
    struct RefreshColumn {
        std::uint32_t k;
        bool search;
        bool pivot;
        std::uint32_t rows_end;
    };
    /// A row update the refresh redoes: its elimination slot (index into
    /// elim_ and factor_), the offset of its row, whether its factor is
    /// recomputed, and the end of its cone columns in refresh_cols_.
    struct RefreshRow {
        std::uint32_t slot;
        std::uint32_t offset;
        bool factor;
        std::uint32_t cols_end;
    };

    SparsityPattern pattern_;  ///< union of every touched pattern solved
    SparsityPattern dynamic_;  ///< union of every dynamic pattern solved
    SparsityPattern sym_;      ///< active-row pattern while recording
    std::size_t planned_ = 0;  ///< leading columns whose plan is valid
    std::vector<std::uint32_t> pivot_;
    std::vector<std::uint32_t> front_;              ///< row at position k before its swap
    std::vector<std::uint32_t> cand_begin_, cand_;  ///< per column, CSR-style
    std::vector<std::uint32_t> elim_begin_, elim_;
    std::vector<std::uint32_t> ucol_begin_, ucol_;
    std::vector<std::uint32_t> row_of_;  ///< row at each position
    std::vector<std::uint32_t> pos_of_;  ///< position of each row

    // The last solve, kept for the next refresh, and the refresh schedule.
    bool cached_ = false;     ///< lu_, factor_ and inv_pivot_ hold a finished solve
    bool scheduled_ = false;  ///< the schedule matches the plan and dynamic_
    DenseMatrix<double> lu_;  ///< eliminated matrix
    std::vector<double> factor_;     ///< per elimination slot
    std::vector<double> inv_pivot_;  ///< per column
    std::vector<double> rhs_;        ///< right-hand side, restored if a refresh fails
    std::vector<std::uint32_t> static_;  ///< recorded entries outside dynamic_
    std::vector<double> static_input_;   ///< their values in the last full replay
    std::vector<std::uint32_t> restart_;  ///< the cone's entries
    std::vector<RefreshColumn> refresh_columns_;
    std::vector<RefreshRow> refresh_rows_;
    std::vector<std::uint32_t> refresh_cols_;

    std::uint64_t solves_ = 0;
    std::uint64_t plans_ = 0;
    std::uint64_t refreshes_ = 0;
    std::uint64_t planned_columns_ = 0;
};

}  // namespace rfabm::circuit
