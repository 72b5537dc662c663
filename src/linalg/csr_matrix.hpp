// Compressed-sparse-row matrix — the representation for CTMC rate matrices
// and uniformised probability matrices throughout the library.
#ifndef ARCADE_LINALG_CSR_MATRIX_HPP
#define ARCADE_LINALG_CSR_MATRIX_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace arcade::linalg {

/// One stored entry of a sparse matrix row.
struct Entry {
    std::size_t column;
    double value;
};

class CsrMatrix;

/// Incremental builder: entries may arrive in any order; duplicate
/// coordinates are summed.  `build()` produces a column-sorted CsrMatrix.
class CsrBuilder {
public:
    explicit CsrBuilder(std::size_t rows, std::size_t cols);

    void add(std::size_t row, std::size_t col, double value);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] CsrMatrix build() const;

private:
    std::size_t rows_;
    std::size_t cols_;
    struct Coo {
        std::size_t row;
        std::size_t col;
        double value;
    };
    std::vector<Coo> entries_;
};

/// Immutable CSR matrix with no duplicate columns in a row.  Rows built by
/// CsrBuilder are sorted by column; uniformise() output is the exception
/// (diagonal last), so at() does not apply to it.
class CsrMatrix {
public:
    CsrMatrix() = default;
    CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
              std::vector<std::size_t> col_idx, std::vector<double> values);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nonzeros() const noexcept { return values_.size(); }

    [[nodiscard]] std::span<const std::size_t> row_columns(std::size_t row) const;
    [[nodiscard]] std::span<const double> row_values(std::size_t row) const;

    /// Value at (row, col); 0.0 when not stored.  Needs column-sorted rows.
    [[nodiscard]] double at(std::size_t row, std::size_t col) const;

    /// Sum of stored values in `row`.
    [[nodiscard]] double row_sum(std::size_t row) const;

    /// Transposed copy (used to precompute incoming-edge structure).
    [[nodiscard]] CsrMatrix transposed() const;

    [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept { return row_ptr_; }
    [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept { return col_idx_; }
    [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> row_ptr_;  // size rows_+1
    std::vector<std::size_t> col_idx_;
    std::vector<double> values_;
};

/// The uniformised DTMC P = I + Q/lambda of the rate matrix `rates`
/// (Q = R with diagonal -exit rate).  Row i holds the off-diagonal entries
/// v/lambda in `rates`' row order, stored self-loops skipped, and then,
/// LAST, the diagonal 1 - sum(v/lambda) summed in that same order.  Rows are
/// therefore not column-sorted.  With the diagonal last, multiply_left/right
/// on P reproduce the on-the-fly uniformised step bit for bit: a left
/// product still adds row i's terms to each out[c] once, in row order, and a
/// right product ends with `sum + (1 - moved) * cur[i]`.
[[nodiscard]] CsrMatrix uniformise(const CsrMatrix& rates, double lambda);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_CSR_MATRIX_HPP
