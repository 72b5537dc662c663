// Blocked CSR matvec kernels for the numeric core.
//
// Every kernel here exists in two variants selected by KernelMode: Blocked
// (the production body: 4-way unrolled inner loops over __restrict
// pointers, with the diagonal split out of the uniformised loops so the hot
// path is branch-free) and Scalar (the seed's straightforward loops, kept as
// the test reference).  Both variants accumulate in the SAME ascending-index
// order with a single sequential accumulator chain, so their results are
// bitwise identical — the unrolling only pipelines the loads, multiplies and
// divisions, it never reassociates a floating-point sum and never contracts
// into FMAs.  Tests and benches reach the reference through
// set_kernel_mode().
#ifndef ARCADE_LINALG_KERNELS_HPP
#define ARCADE_LINALG_KERNELS_HPP

#include <cstddef>
#include <span>

#include "linalg/csr_matrix.hpp"

namespace arcade::linalg {

enum class KernelMode {
    Blocked,  ///< unrolled kernels (default)
    Scalar,   ///< the seed's reference loops
};

/// Current mode; initially Blocked.
[[nodiscard]] KernelMode kernel_mode();

/// Overrides the mode at runtime (atomic; used by identity tests/benches).
void set_kernel_mode(KernelMode mode);

/// y = x^T * M (distribution propagation).  `x.size()==rows`, `y.size()==cols`.
void multiply_left(const CsrMatrix& m, std::span<const double> x, std::span<double> y);

/// y = M * x (backward solutions).  `x.size()==cols`, `y.size()==rows`.
void multiply_right(const CsrMatrix& m, std::span<const double> x, std::span<double> y);

/// One forward application of the uniformised DTMC, out = in * P with
/// P = I + Q/lambda built on the fly from the rate matrix: for each row i
/// the off-diagonal entries scatter in[i]*rate/lambda and the retained mass
/// in[i]*(1 - moved) lands on out[i] afterwards — exactly the seed's
/// transient/power-iteration step, including the in[i]==0 row skip.
/// `out` is overwritten.
void uniformised_multiply_left(const CsrMatrix& rates, double lambda,
                               std::span<const double> in, std::span<double> out);

/// The column-vector (gather) form of the same uniformised matrix,
/// next = P * cur, with the diagonal term (1 - moved)*cur[i] added LAST —
/// matching the seed's bounded-until backward recurrence bit for bit.
void uniformised_multiply_right(const CsrMatrix& rates, double lambda,
                                std::span<const double> cur, std::span<double> next);

/// acc + sum of vals[k]*x[cols[k]] over entries whose column != skip, in
/// ascending index order (the Gauss–Seidel inflow gather).
[[nodiscard]] double gather_skip_diag(std::span<const std::size_t> cols,
                                      std::span<const double> vals,
                                      std::span<const double> x, std::size_t skip,
                                      double acc);

/// Like gather_skip_diag, but also reports the skipped diagonal value
/// (0.0 when the row stores no diagonal) — the fixpoint Gauss–Seidel shape.
[[nodiscard]] double gather_capture_diag(std::span<const std::size_t> cols,
                                         std::span<const double> vals,
                                         std::span<const double> x, std::size_t row,
                                         double acc, double& diag);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_KERNELS_HPP
