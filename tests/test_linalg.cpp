// Unit tests: sparse matrices and vector helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"

namespace la = arcade::linalg;

TEST(CsrMatrix, BuildsSortedRowsAndSumsDuplicates) {
    la::CsrBuilder b(3, 3);
    b.add(1, 2, 4.0);
    b.add(1, 0, 1.0);
    b.add(1, 2, 0.5);  // duplicate coordinate: summed
    b.add(0, 1, 2.0);
    const la::CsrMatrix m = b.build();
    EXPECT_EQ(m.nonzeros(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 4.5);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
    const auto cols = m.row_columns(1);
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_LT(cols[0], cols[1]);  // sorted
}

TEST(CsrMatrix, MultiplyLeftMatchesManualComputation) {
    // M = [[0,2],[3,0]];  x = [1, 10];  x*M = [30, 2]
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 2.0);
    b.add(1, 0, 3.0);
    const la::CsrMatrix m = b.build();
    std::vector<double> x{1.0, 10.0};
    std::vector<double> y(2, 0.0);
    la::multiply_left(m, x, y);
    EXPECT_DOUBLE_EQ(y[0], 30.0);
    EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(CsrMatrix, MultiplyRightMatchesManualComputation) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 2.0);
    b.add(1, 0, 3.0);
    const la::CsrMatrix m = b.build();
    std::vector<double> x{1.0, 10.0};
    std::vector<double> y(2, 0.0);
    la::multiply_right(m, x, y);  // M*x = [20, 3]
    EXPECT_DOUBLE_EQ(y[0], 20.0);
    EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(CsrMatrix, TransposeRoundTrips) {
    la::CsrBuilder b(2, 3);
    b.add(0, 2, 5.0);
    b.add(1, 1, 7.0);
    const la::CsrMatrix m = b.build();
    const la::CsrMatrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
    EXPECT_DOUBLE_EQ(t.at(1, 1), 7.0);
    const la::CsrMatrix tt = t.transposed();
    EXPECT_DOUBLE_EQ(tt.at(0, 2), 5.0);
    EXPECT_EQ(tt.nonzeros(), m.nonzeros());
}

TEST(CsrMatrix, RowSumAndOutOfRangeGuard) {
    la::CsrBuilder b(2, 2);
    b.add(0, 0, 1.0);
    b.add(0, 1, 2.0);
    const la::CsrMatrix m = b.build();
    EXPECT_DOUBLE_EQ(m.row_sum(0), 3.0);
    EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
}

TEST(VectorOps, DistancesAndDot) {
    std::vector<double> a{1.0, 2.0, 3.0};
    std::vector<double> b{1.5, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(la::l1_distance(a, b), 1.5);
    EXPECT_DOUBLE_EQ(la::linf_distance(a, b), 1.0);
    EXPECT_DOUBLE_EQ(la::dot(a, b), 1.5 + 4.0 + 6.0);
    EXPECT_DOUBLE_EQ(la::sum(a), 6.0);
}

TEST(VectorOps, NormalizeAndGuard) {
    std::vector<double> v{1.0, 3.0};
    la::normalize(v);
    EXPECT_DOUBLE_EQ(v[0], 0.25);
    EXPECT_DOUBLE_EQ(v[1], 0.75);
    std::vector<double> zero{0.0, 0.0};
    EXPECT_THROW(la::normalize(zero), arcade::ModelError);
}

TEST(VectorOps, Axpy) {
    std::vector<double> x{1.0, 2.0};
    std::vector<double> y{10.0, 20.0};
    la::axpy(0.5, x, y);
    EXPECT_DOUBLE_EQ(y[0], 10.5);
    EXPECT_DOUBLE_EQ(y[1], 21.0);
}

TEST(VectorOps, NeumaierSumCompensatesCancellation) {
    // A naive left-to-right sum of these is 0.0; the compensation term
    // recovers the unit that cancellation swallows.
    const std::vector<double> v{1.0e16, 1.0, -1.0e16};
    EXPECT_DOUBLE_EQ(la::neumaier_sum(v), 1.0);
    const std::vector<double> plain{0.25, 0.5, 0.125};
    EXPECT_DOUBLE_EQ(la::neumaier_sum(plain), la::sum(plain));
    EXPECT_DOUBLE_EQ(la::neumaier_sum({}), 0.0);
}

// --- Kernel-mode bitwise identity on deliberately awkward inputs ----------
//
// The blocked kernels' whole contract is "same bits, fewer cycles": they
// must agree with the scalar reference byte for byte on empty rows,
// single-entry rows, rows longer than the unroll width, dimensions that are
// not a multiple of it, and NaN/inf payloads.  One IEEE caveat shapes the inputs:
// when BOTH operands of an add are NaNs with different payloads the result
// takes the payload of whichever operand the compiler put first, so the
// identity only covers inputs whose NaNs all share one payload.  The tests
// therefore exercise two special classes separately — ±inf (every NaN they
// generate is the arch's default quiet NaN) and injected quiet NaNs (all
// bit-identical) — rather than mixing the two payloads in one reduction.

namespace {

/// RAII mode switch so a failing assertion cannot leak a non-default
/// kernel mode into later tests.
class KernelModeGuard {
public:
    explicit KernelModeGuard(la::KernelMode mode) : saved_(la::kernel_mode()) {
        la::set_kernel_mode(mode);
    }
    ~KernelModeGuard() { la::set_kernel_mode(saved_); }
    KernelModeGuard(const KernelModeGuard&) = delete;
    KernelModeGuard& operator=(const KernelModeGuard&) = delete;

private:
    la::KernelMode saved_;
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// 23x23 (not a multiple of the unroll width) with empty rows, one-entry
/// rows, long rows and a mix of rows with and without a stored diagonal.
la::CsrMatrix edge_matrix() {
    constexpr std::size_t n = 23;
    la::CsrBuilder b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t len = (r * 5) % 9;  // row lengths 0..8
        for (std::size_t k = 0; k < len; ++k) {
            const std::size_t c = (r + 3 * k + 1) % n;
            const double sign = k % 2 == 0 ? 1.0 : -1.0;
            b.add(r, c, sign * (1.0 + 0.25 * static_cast<double>(k) +
                                0.125 * static_cast<double>(r)));
        }
        if (r % 2 == 0 && len > 0) b.add(r, r, 2.0 + 0.5 * static_cast<double>(r));
    }
    return b.build();
}

enum class Specials { None, Inf, NaN };

std::vector<double> edge_vector(std::size_t n, Specials specials) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = 0.25 * static_cast<double>(i) - 2.0;
    }
    if (n > 0) v[0] = 0.0;  // exercises the uniformised in[i]==0 row skip
    if (n >= 18) {
        switch (specials) {
            case Specials::Inf:
                v[3] = std::numeric_limits<double>::infinity();
                v[11] = -std::numeric_limits<double>::infinity();
                break;
            case Specials::NaN:
                v[3] = std::numeric_limits<double>::quiet_NaN();
                v[17] = std::numeric_limits<double>::quiet_NaN();
                break;
            case Specials::None: break;
        }
    }
    return v;
}

constexpr la::KernelMode kModes[] = {la::KernelMode::Scalar, la::KernelMode::Blocked};

const char* mode_name(la::KernelMode mode) {
    return mode == la::KernelMode::Scalar ? "scalar" : "blocked";
}

/// The on-the-fly uniformised step, out = in * P with P = I + Q/lambda:
/// off-diagonal in[i]*rate/lambda scattered in row order, then the retained
/// mass in[i]*(1 - moved), skipping rows with in[i]==0.  uniformise() plus
/// multiply_left must reproduce it bit for bit.
void reference_uniformised_left(const la::CsrMatrix& rates, double lambda,
                                std::span<const double> in, std::span<double> out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < rates.rows(); ++i) {
        const double p = in[i];
        if (p == 0.0) continue;
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        double moved = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == i) continue;
            const double q = vals[k] / lambda;
            out[cols[k]] += p * q;
            moved += q;
        }
        out[i] += p * (1.0 - moved);
    }
}

/// The column-vector form, next = P * cur, with the diagonal term
/// (1 - moved)*cur[i] added last.
void reference_uniformised_right(const la::CsrMatrix& rates, double lambda,
                                 std::span<const double> cur, std::span<double> next) {
    for (std::size_t i = 0; i < rates.rows(); ++i) {
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        double moved = 0.0;
        double sum = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == i) continue;
            const double p = vals[k] / lambda;
            sum += p * cur[cols[k]];
            moved += p;
        }
        next[i] = sum + (1.0 - moved) * cur[i];
    }
}

void expect_all_modes_identical(Specials specials) {
    const la::CsrMatrix m = edge_matrix();
    const std::size_t n = m.rows();
    const std::vector<double> x = edge_vector(n, specials);
    const double lambda = 3.5;
    const la::CsrMatrix p = la::uniformise(m, lambda);

    std::vector<double> ref_left(n), ref_right(n), ref_uleft(n), ref_uright(n);
    {
        const KernelModeGuard guard(la::KernelMode::Scalar);
        la::multiply_left(m, x, ref_left);
        la::multiply_right(m, x, ref_right);
    }
    reference_uniformised_left(m, lambda, x, ref_uleft);
    reference_uniformised_right(m, lambda, x, ref_uright);

    for (const la::KernelMode mode : kModes) {
        const KernelModeGuard guard(mode);
        std::vector<double> y(n, 0.5);  // poisoned: kernels must overwrite
        la::multiply_left(m, x, y);
        EXPECT_TRUE(same_bits(y, ref_left)) << "multiply_left " << mode_name(mode);
        la::multiply_right(m, x, y);
        EXPECT_TRUE(same_bits(y, ref_right)) << "multiply_right " << mode_name(mode);
        std::fill(y.begin(), y.end(), 0.5);
        la::multiply_left(p, x, y);
        EXPECT_TRUE(same_bits(y, ref_uleft))
            << "multiply_left on uniformise() " << mode_name(mode);
        std::fill(y.begin(), y.end(), 0.5);
        la::multiply_right(p, x, y);
        EXPECT_TRUE(same_bits(y, ref_uright))
            << "multiply_right on uniformise() " << mode_name(mode);
    }
}

}  // namespace

TEST(Kernels, AllModesBitwiseIdenticalOnEdgeShapes) {
    expect_all_modes_identical(Specials::None);
}

TEST(Kernels, InfinitiesPropagateIdenticallyAcrossModes) {
    expect_all_modes_identical(Specials::Inf);
}

TEST(Kernels, NansPropagateIdenticallyAcrossModes) {
    expect_all_modes_identical(Specials::NaN);
}

TEST(Uniformise, RowsHoldScaledOffDiagonalsThenTheDiagonalLast) {
    const la::CsrMatrix m = edge_matrix();
    const double lambda = 3.5;
    const la::CsrMatrix p = la::uniformise(m, lambda);
    ASSERT_EQ(p.rows(), m.rows());
    ASSERT_EQ(p.cols(), m.cols());
    EXPECT_LE(p.nonzeros(), m.nonzeros() + m.rows());
    std::size_t self_loops = 0;
    for (std::size_t i = 0; i < m.rows(); ++i) {
        const auto rcols = m.row_columns(i);
        const auto rvals = m.row_values(i);
        const auto pcols = p.row_columns(i);
        const auto pvals = p.row_values(i);
        ASSERT_FALSE(pcols.empty()) << "row " << i;
        // Off-diagonals in the rate matrix's order, self-loops dropped.
        std::size_t j = 0;
        double moved = 0.0;
        for (std::size_t k = 0; k < rcols.size(); ++k) {
            if (rcols[k] == i) {
                ++self_loops;
                continue;
            }
            ASSERT_LT(j + 1, pcols.size()) << "row " << i;
            EXPECT_EQ(pcols[j], rcols[k]) << "row " << i;
            EXPECT_TRUE(same_bits(pvals[j], rvals[k] / lambda)) << "row " << i;
            moved += rvals[k] / lambda;
            ++j;
        }
        // Then exactly one more entry: the diagonal 1 - sum(q), in row order.
        ASSERT_EQ(pcols.size(), j + 1) << "row " << i;
        EXPECT_EQ(pcols.back(), i) << "row " << i;
        EXPECT_TRUE(same_bits(pvals.back(), 1.0 - moved)) << "row " << i;
        if (rcols.empty()) EXPECT_EQ(pvals.back(), 1.0) << "empty row " << i;
    }
    EXPECT_GT(self_loops, 0u);  // edge_matrix() stores some diagonals
    EXPECT_EQ(p.nonzeros(), m.nonzeros() - self_loops + m.rows());
}

TEST(Uniformise, EmptyAndSelfLoopOnlyRowsBecomeIdentityRows) {
    la::CsrBuilder b(3, 3);
    b.add(0, 0, 5.0);  // self-loop only
    b.add(2, 1, 2.0);  // row 1 stays empty
    const la::CsrMatrix p = la::uniformise(b.build(), 4.0);
    ASSERT_EQ(p.nonzeros(), 4u);
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
        const auto cols = p.row_columns(i);
        ASSERT_EQ(cols.size(), 1u);
        EXPECT_EQ(cols[0], i);
        EXPECT_EQ(p.row_values(i)[0], 1.0);
    }
    const auto cols = p.row_columns(2);
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_EQ(cols[0], 1u);
    EXPECT_EQ(cols[1], 2u);
    EXPECT_EQ(p.row_values(2)[0], 0.5);
    EXPECT_EQ(p.row_values(2)[1], 0.5);
}

TEST(Kernels, GatherHelpersAgreeAcrossModes) {
    // Row shapes 0, 1, 2 and 7 entries; x carries NaN and inf so the fold
    // order is observable in the bits.
    const std::vector<std::size_t> cols{0, 2, 3, 5, 6, 7, 9};
    const std::vector<double> vals{0.5, -1.25, 2.0, 0.375, -0.75, 4.0, 1.5};
    std::vector<double> x(10);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.0 / (static_cast<double>(i) + 0.5);
    x[5] = std::numeric_limits<double>::infinity();
    x[9] = std::numeric_limits<double>::quiet_NaN();

    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                  std::size_t{7}}) {
        const std::span<const std::size_t> c(cols.data(), len);
        const std::span<const double> v(vals.data(), len);
        for (const std::size_t skip : {std::size_t{3}, std::size_t{21}}) {
            double ref_skip = 0.0;
            double ref_cap = 0.0;
            double ref_diag = 0.0;
            {
                const KernelModeGuard guard(la::KernelMode::Scalar);
                ref_skip = la::gather_skip_diag(c, v, x, skip, 0.0625);
                ref_cap = la::gather_capture_diag(c, v, x, skip, 0.0625, ref_diag);
            }
            for (const la::KernelMode mode : kModes) {
                const KernelModeGuard guard(mode);
                double diag = -1.0;
                EXPECT_TRUE(same_bits(la::gather_skip_diag(c, v, x, skip, 0.0625),
                                      ref_skip))
                    << "gather_skip_diag " << mode_name(mode) << " len " << len;
                EXPECT_TRUE(same_bits(
                    la::gather_capture_diag(c, v, x, skip, 0.0625, diag), ref_cap))
                    << "gather_capture_diag " << mode_name(mode) << " len " << len;
                EXPECT_TRUE(same_bits(diag, ref_diag))
                    << "captured diagonal " << mode_name(mode) << " len " << len;
            }
        }
    }
}
