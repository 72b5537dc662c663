#include "linalg/csr_matrix.hpp"

#include <algorithm>

#include "support/errors.hpp"

namespace arcade::linalg {

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
    ARCADE_ASSERT(row < rows_ && col < cols_,
                  "entry (" + std::to_string(row) + "," + std::to_string(col) +
                      ") outside " + std::to_string(rows_) + "x" + std::to_string(cols_));
    entries_.push_back(Coo{row, col, value});
}

CsrMatrix CsrBuilder::build() const {
    std::vector<Coo> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(), [](const Coo& a, const Coo& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    std::vector<std::size_t> row_ptr(rows_ + 1, 0);
    std::vector<std::size_t> col_idx;
    std::vector<double> values;
    col_idx.reserve(sorted.size());
    values.reserve(sorted.size());
    std::size_t i = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        row_ptr[r] = col_idx.size();
        while (i < sorted.size() && sorted[i].row == r) {
            const std::size_t c = sorted[i].col;
            double v = 0.0;
            while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
                v += sorted[i].value;
                ++i;
            }
            col_idx.push_back(c);
            values.push_back(v);
        }
    }
    row_ptr[rows_] = col_idx.size();
    return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
    ARCADE_ASSERT(row_ptr_.size() == rows_ + 1, "row_ptr size mismatch");
    ARCADE_ASSERT(col_idx_.size() == values_.size(), "col/value size mismatch");
}

std::span<const std::size_t> CsrMatrix::row_columns(std::size_t row) const {
    ARCADE_ASSERT(row < rows_, "row out of range");
    return {col_idx_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

std::span<const double> CsrMatrix::row_values(std::size_t row) const {
    ARCADE_ASSERT(row < rows_, "row out of range");
    return {values_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
    const auto cols = row_columns(row);
    const auto it = std::lower_bound(cols.begin(), cols.end(), col);
    if (it == cols.end() || *it != col) return 0.0;
    return values_[row_ptr_[row] + static_cast<std::size_t>(it - cols.begin())];
}

double CsrMatrix::row_sum(std::size_t row) const {
    double s = 0.0;
    for (double v : row_values(row)) s += v;
    return s;
}

CsrMatrix CsrMatrix::transposed() const {
    CsrBuilder b(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::size_t begin = row_ptr_[r];
        const std::size_t end = row_ptr_[r + 1];
        for (std::size_t k = begin; k < end; ++k) {
            b.add(col_idx_[k], r, values_[k]);
        }
    }
    return b.build();
}

CsrMatrix uniformise(const CsrMatrix& rates, double lambda) {
    ARCADE_ASSERT(rates.rows() == rates.cols(), "uniformise needs a square rate matrix");
    const std::size_t n = rates.rows();
    std::vector<std::size_t> row_ptr(n + 1, 0);
    std::vector<std::size_t> col_idx;
    std::vector<double> values;
    col_idx.reserve(rates.nonzeros() + n);
    values.reserve(rates.nonzeros() + n);
    for (std::size_t i = 0; i < n; ++i) {
        row_ptr[i] = col_idx.size();
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        double moved = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == i) continue;
            const double q = vals[k] / lambda;
            col_idx.push_back(cols[k]);
            values.push_back(q);
            moved += q;
        }
        col_idx.push_back(i);
        values.push_back(1.0 - moved);
    }
    row_ptr[n] = col_idx.size();
    return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

}  // namespace arcade::linalg
