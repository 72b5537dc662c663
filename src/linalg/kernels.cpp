#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>

#include "support/errors.hpp"

namespace arcade::linalg {

namespace {

std::atomic<KernelMode> current_mode{KernelMode::Blocked};

/// Sequential-order dot product of one CSR row range against a dense vector.
/// The unrolled body chains the adds (((acc+t0)+t1)+t2)+t3 — identical
/// association to the scalar loop — while the four loads/multiplies pipeline.
inline double row_dot(const std::size_t* __restrict cols, const double* __restrict vals,
                      const double* __restrict x, std::size_t begin, std::size_t end,
                      double acc) {
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
        const double t0 = vals[k] * x[cols[k]];
        const double t1 = vals[k + 1] * x[cols[k + 1]];
        const double t2 = vals[k + 2] * x[cols[k + 2]];
        const double t3 = vals[k + 3] * x[cols[k + 3]];
        acc = (((acc + t0) + t1) + t2) + t3;
    }
    for (; k < end; ++k) acc += vals[k] * x[cols[k]];
    return acc;
}

/// Index of the diagonal entry in [begin,end), or end when absent.
inline std::size_t find_diag(const std::size_t* cols, std::size_t begin, std::size_t end,
                             std::size_t row) {
    for (std::size_t k = begin; k < end; ++k) {
        if (cols[k] == row) return k;
    }
    return end;
}

void multiply_left_scalar(const CsrMatrix& m, std::span<const double> x,
                          std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const auto& values = m.values();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            y[col_idx[k]] += xr * values[k];
        }
    }
}

void multiply_left_blocked(const CsrMatrix& m, std::span<const double> x,
                           std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const std::size_t* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double xr = xp[r];
        if (xr == 0.0) continue;
        std::size_t k = row_ptr[r];
        const std::size_t end = row_ptr[r + 1];
        // Columns are unique within a row, so the four scatters never alias
        // and each y element still receives its contributions in row order.
        for (; k + 4 <= end; k += 4) {
            yp[cols[k]] += xr * vals[k];
            yp[cols[k + 1]] += xr * vals[k + 1];
            yp[cols[k + 2]] += xr * vals[k + 2];
            yp[cols[k + 3]] += xr * vals[k + 3];
        }
        for (; k < end; ++k) yp[cols[k]] += xr * vals[k];
    }
}

void multiply_right_scalar(const CsrMatrix& m, std::span<const double> x,
                           std::span<double> y) {
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const auto& values = m.values();
    for (std::size_t r = 0; r < m.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            acc += values[k] * x[col_idx[k]];
        }
        y[r] = acc;
    }
}

void multiply_right_blocked(const CsrMatrix& m, std::span<const double> x,
                            std::span<double> y) {
    const std::size_t* __restrict row_ptr = m.row_ptr().data();
    const std::size_t* __restrict cols = m.col_idx().data();
    const double* __restrict vals = m.values().data();
    const double* __restrict xp = x.data();
    double* __restrict yp = y.data();
    const std::size_t rows = m.rows();
    // Four-row blocks give the compiler four independent dependency chains;
    // within each row the dot product stays in ascending order.
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        yp[r] = row_dot(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0);
        yp[r + 1] = row_dot(cols, vals, xp, row_ptr[r + 1], row_ptr[r + 2], 0.0);
        yp[r + 2] = row_dot(cols, vals, xp, row_ptr[r + 2], row_ptr[r + 3], 0.0);
        yp[r + 3] = row_dot(cols, vals, xp, row_ptr[r + 3], row_ptr[r + 4], 0.0);
    }
    for (; r < rows; ++r) {
        yp[r] = row_dot(cols, vals, xp, row_ptr[r], row_ptr[r + 1], 0.0);
    }
}

}  // namespace

KernelMode kernel_mode() { return current_mode.load(std::memory_order_relaxed); }

void set_kernel_mode(KernelMode mode) {
    current_mode.store(mode, std::memory_order_relaxed);
}

void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y) {
    ARCADE_ASSERT(x.size() == m.rows() && y.size() == m.cols(),
                  "multiply_left shape mismatch");
    if (kernel_mode() == KernelMode::Blocked) {
        multiply_left_blocked(m, x, y);
    } else {
        multiply_left_scalar(m, x, y);
    }
}

void multiply_right(const CsrMatrix& m, std::span<const double> x, std::span<double> y) {
    ARCADE_ASSERT(x.size() == m.cols() && y.size() == m.rows(),
                  "multiply_right shape mismatch");
    if (kernel_mode() == KernelMode::Blocked) {
        multiply_right_blocked(m, x, y);
    } else {
        multiply_right_scalar(m, x, y);
    }
}

double gather_skip_diag(std::span<const std::size_t> cols, std::span<const double> vals,
                        std::span<const double> x, std::size_t skip, double acc) {
    if (kernel_mode() == KernelMode::Scalar) {
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] != skip) acc += vals[k] * x[cols[k]];
        }
        return acc;
    }
    const std::size_t diag = find_diag(cols.data(), 0, cols.size(), skip);
    acc = row_dot(cols.data(), vals.data(), x.data(), 0, diag, acc);
    if (diag != cols.size()) {
        acc = row_dot(cols.data(), vals.data(), x.data(), diag + 1, cols.size(), acc);
    }
    return acc;
}

double gather_capture_diag(std::span<const std::size_t> cols, std::span<const double> vals,
                           std::span<const double> x, std::size_t row, double acc,
                           double& diag) {
    diag = 0.0;
    if (kernel_mode() == KernelMode::Scalar) {
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == row) {
                diag = vals[k];
            } else {
                acc += vals[k] * x[cols[k]];
            }
        }
        return acc;
    }
    const std::size_t d = find_diag(cols.data(), 0, cols.size(), row);
    acc = row_dot(cols.data(), vals.data(), x.data(), 0, d, acc);
    if (d != cols.size()) {
        diag = vals[d];
        acc = row_dot(cols.data(), vals.data(), x.data(), d + 1, cols.size(), acc);
    }
    return acc;
}

}  // namespace arcade::linalg
