// Blocked CSR matvec kernels for the numeric core.
//
// Every kernel here exists in two variants selected by KernelMode: Blocked
// (the production body: 4-way unrolled inner loops over __restrict
// pointers) and Scalar (the seed's straightforward loops, kept as the test
// reference).  Both variants accumulate in the SAME storage order with a
// single sequential accumulator chain, so their results are bitwise
// identical — the unrolling only pipelines the loads and multiplies, it
// never reassociates a floating-point sum and never contracts into FMAs.
// Tests and benches reach the reference through set_kernel_mode().
//
// A uniformisation step is a plain multiply_left/right on the matrix
// P = I + Q/lambda that linalg::uniformise() builds once per solve.
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
