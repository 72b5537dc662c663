#include "rewards/rewards.hpp"

#include <algorithm>
#include <cmath>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "engine/workspace.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "numeric/fox_glynn.hpp"
#include "support/errors.hpp"

namespace arcade::rewards {

RewardStructure::RewardStructure(std::string name, std::vector<double> state_rates)
    : name_(std::move(name)), rates_(std::move(state_rates)) {}

namespace {

void check(const ctmc::Ctmc& chain, const RewardStructure& reward,
           std::span<const double> initial) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(),
                  "reward structure size mismatch");
    ARCADE_ASSERT(initial.size() == chain.state_count(), "initial size mismatch");
}

/// E over one interval of length dt starting from distribution `dist`:
///   (1/L) sum_k (1 - F_k(L dt)) * (dist P^k) · rho
/// with P = uniformise(rates, L).  Also advances `dist` to the end of the
/// interval (re-using the powers).
double accumulate_interval(const linalg::CsrMatrix& p, double lambda,
                           std::vector<double>& dist, const std::vector<double>& rho,
                           double dt, const ctmc::TransientOptions& options) {
    if (dt <= 0.0) return 0.0;
    const double q = lambda * dt;
    const auto weights = numeric::fox_glynn_cached(q, options.epsilon);

    // Survival function of the Poisson: S_k = P(N > k) = 1 - F_k.
    // Computed from the normalised weights; mass below `left` counts as
    // already included in F (indices < left have negligible pmf).
    const std::size_t n = p.rows();
    engine::ScratchVector cur_scratch(options.workspace, n);
    engine::ScratchVector next_scratch(options.workspace, n);
    engine::ScratchVector end_scratch(options.workspace, n);
    std::vector<double>& cur = cur_scratch.get();
    std::vector<double>& next = next_scratch.get();
    std::vector<double>& end_dist = end_scratch.get();
    cur = dist;
    std::fill(end_dist.begin(), end_dist.end(), 0.0);

    double cdf = 0.0;
    double total = 0.0;
    for (std::size_t k = 0;; ++k) {
        const double w = weights->weight(k);
        cdf += w;
        const double survival = std::max(0.0, 1.0 - cdf);
        // reward contribution of P^k term
        if (survival > 0.0) {
            total += survival * linalg::dot(cur, rho);
        }
        if (w != 0.0) {
            for (std::size_t i = 0; i < n; ++i) end_dist[i] += w * cur[i];
        }
        if (k == weights->right) break;
        linalg::multiply_left(p, cur, next);
        std::swap(cur, next);
    }
    // Indices k < left all have survival 1 and are skipped by weight(k)==0 in
    // the loop only for the *pmf*; the survival term must still be counted.
    // The loop above runs k from 0 so all survival terms are included.
    dist = end_dist;
    return total / lambda;
}

// ---------------------------------------------------------------------------
// Per-state rewards: kTile point distributions advanced together.
//
// A tile is a row-major n × kTile block whose column j is the distribution
// of the chain started in state s0 + j.  Per column, every step below does
// the single-distribution path's operations in its order, so each value is
// bitwise what instantaneous_reward / accumulated_reward return for
// point_distribution(n, s0 + j).  The column loops are the vectorised inner
// loops; none of them may be contracted into FMAs (that changes the bits).
// ---------------------------------------------------------------------------

/// Starting states per tile.  Measured on the line-2 DED chain (512 states,
/// R=? [I=4.5] + R=? [C<=10], GCC 12 -O3 baseline x86-64, best of 5):
/// 8 → 0.22 s, 16 → 0.22 s, 24 → 0.13 s, 32 → 0.12 s, 48 → 0.22 s.
constexpr std::size_t kTile = 32;

/// y = x P per column.  Per column this is multiply_left: every stored entry
/// of row r adds x[r]·v to y[col] in row order.  multiply_left skips rows
/// with x[r] == 0; here only an all-zero tile row is skipped and the other
/// zero columns add +0.0, which leaves a sum of non-negative terms (P ≥ 0
/// because λ exceeds every exit rate) unchanged.
void multiply_left_tile(const linalg::CsrMatrix& p, const double* __restrict x,
                        double* __restrict y) {
    const std::size_t* __restrict row_ptr = p.row_ptr().data();
    const std::size_t* __restrict cols = p.col_idx().data();
    const double* __restrict vals = p.values().data();
    std::fill(y, y + p.rows() * kTile, 0.0);
    for (std::size_t r = 0; r < p.rows(); ++r) {
        const double* __restrict xr = x + r * kTile;
        bool nonzero = false;
        for (std::size_t j = 0; j < kTile; ++j) nonzero |= xr[j] != 0.0;
        if (!nonzero) continue;
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            const double v = vals[k];
            double* __restrict yc = y + cols[k] * kTile;
            for (std::size_t j = 0; j < kTile; ++j) yc[j] += xr[j] * v;
        }
    }
}

/// out[j] = linalg::dot(column j of `block`, rho): the same sequential sum.
void dot_columns(const double* __restrict block, const std::vector<double>& rho,
                 double* __restrict out) {
    std::fill(out, out + kTile, 0.0);
    for (std::size_t i = 0; i < rho.size(); ++i) {
        const double* __restrict row = block + i * kTile;
        for (std::size_t j = 0; j < kTile; ++j) out[j] += row[j] * rho[i];
    }
}

enum class Measure { Instantaneous, Accumulated };

std::vector<double> reward_from_each_state(const ctmc::Ctmc& chain,
                                           const RewardStructure& reward, double t,
                                           const ctmc::TransientOptions& options,
                                           Measure measure) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(),
                  "reward structure size mismatch");
    ARCADE_ASSERT(t >= 0.0, "negative time");
    const std::size_t n = chain.state_count();
    std::vector<double> values(n, 0.0);
    // accumulated_reward over [0, 0] is +0.0 without a step.
    if (measure == Measure::Accumulated && t == 0.0) return values;

    const std::vector<double>& rho = reward.state_rates();
    const double lambda = ctmc::uniformisation_rate(chain);
    const linalg::CsrMatrix p = linalg::uniformise(chain.rates(), lambda);
    // instantaneous_reward at t = 0 takes no step: the start is the answer.
    const auto weights =
        t > 0.0 ? numeric::fox_glynn_cached(lambda * t, options.epsilon) : nullptr;

    engine::ScratchVector cur_scratch(options.workspace, n * kTile);
    engine::ScratchVector next_scratch(options.workspace, n * kTile);
    engine::ScratchVector acc_scratch(options.workspace, n * kTile);
    double* cur = cur_scratch.get().data();
    double* next = next_scratch.get().data();
    double* acc = acc_scratch.get().data();
    double dots[kTile];
    double totals[kTile];

    for (std::size_t s0 = 0; s0 < n; s0 += kTile) {
        const std::size_t width = std::min(kTile, n - s0);
        std::fill(cur, cur + n * kTile, 0.0);
        for (std::size_t j = 0; j < width; ++j) cur[(s0 + j) * kTile + j] = 1.0;

        if (measure == Measure::Instantaneous) {
            // TransientEvolver::step: acc = sum_k w_k cur P^k.
            const double* dist = cur;
            if (weights != nullptr) {
                std::fill(acc, acc + n * kTile, 0.0);
                for (std::size_t k = 0;; ++k) {
                    const double w = weights->weight(k);
                    if (w != 0.0) {
                        for (std::size_t i = 0; i < n * kTile; ++i) acc[i] += w * cur[i];
                    }
                    if (k == weights->right) break;
                    multiply_left_tile(p, cur, next);
                    std::swap(cur, next);
                }
                dist = acc;
            }
            dot_columns(dist, rho, totals);
        } else {
            // accumulate_interval: (1/λ) sum_k S_k (cur P^k) · rho.
            std::fill(totals, totals + kTile, 0.0);
            double cdf = 0.0;
            for (std::size_t k = 0;; ++k) {
                cdf += weights->weight(k);
                const double survival = std::max(0.0, 1.0 - cdf);
                if (survival > 0.0) {
                    dot_columns(cur, rho, dots);
                    for (std::size_t j = 0; j < kTile; ++j) totals[j] += survival * dots[j];
                }
                if (k == weights->right) break;
                multiply_left_tile(p, cur, next);
                std::swap(cur, next);
            }
            for (std::size_t j = 0; j < kTile; ++j) totals[j] /= lambda;
        }
        std::copy(totals, totals + width, values.begin() + static_cast<std::ptrdiff_t>(s0));
    }
    return values;
}

}  // namespace

double instantaneous_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                            const RewardStructure& reward, double t,
                            const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    const auto dist = ctmc::transient_distribution(chain, initial, t, options);
    return linalg::dot(dist, reward.state_rates());
}

std::vector<double> instantaneous_reward_series(const ctmc::Ctmc& chain,
                                                std::span<const double> initial,
                                                const RewardStructure& reward,
                                                std::span<const double> times,
                                                const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    ctmc::TransientEvolver evolver(chain, initial, options);
    std::vector<double> out;
    out.reserve(times.size());
    for (double t : times) {
        evolver.advance_to(t);
        out.push_back(linalg::dot(evolver.distribution(), reward.state_rates()));
    }
    return out;
}

double accumulated_reward(const ctmc::Ctmc& chain, std::span<const double> initial,
                          const RewardStructure& reward, double t,
                          const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    ARCADE_ASSERT(t >= 0.0, "negative time bound");
    const double lambda = ctmc::uniformisation_rate(chain);
    const linalg::CsrMatrix p = linalg::uniformise(chain.rates(), lambda);
    std::vector<double> dist(initial.begin(), initial.end());
    return accumulate_interval(p, lambda, dist, reward.state_rates(), t, options);
}

std::vector<double> instantaneous_reward_from_each_state(
    const ctmc::Ctmc& chain, const RewardStructure& reward, double t,
    const ctmc::TransientOptions& options) {
    return reward_from_each_state(chain, reward, t, options, Measure::Instantaneous);
}

std::vector<double> accumulated_reward_from_each_state(const ctmc::Ctmc& chain,
                                                       const RewardStructure& reward,
                                                       double t,
                                                       const ctmc::TransientOptions& options) {
    return reward_from_each_state(chain, reward, t, options, Measure::Accumulated);
}

std::vector<double> accumulated_reward_series(const ctmc::Ctmc& chain,
                                              std::span<const double> initial,
                                              const RewardStructure& reward,
                                              std::span<const double> times,
                                              const ctmc::TransientOptions& options) {
    check(chain, reward, initial);
    const double lambda = ctmc::uniformisation_rate(chain);
    const linalg::CsrMatrix p = linalg::uniformise(chain.rates(), lambda);
    std::vector<double> dist(initial.begin(), initial.end());
    std::vector<double> out;
    out.reserve(times.size());
    double acc = 0.0;
    double prev = 0.0;
    for (double t : times) {
        // Mirror TransientEvolver::advance_to: a grid point within tolerance
        // below the previous one is a duplicate (zero-length interval), an
        // earlier one is a caller error.  The raw `t - prev` of a duplicate
        // can be negative and must never reach accumulate_interval.
        if (t < prev - ctmc::TransientEvolver::kTimeTolerance) {
            throw InvalidArgument("accumulated_reward_series: t=" + std::to_string(t) +
                                  " is before the previous grid point " +
                                  std::to_string(prev) +
                                  "; grid times must be non-decreasing");
        }
        const double dt = std::max(0.0, t - prev);
        acc += accumulate_interval(p, lambda, dist, reward.state_rates(), dt, options);
        out.push_back(acc);
        prev = std::max(prev, t);
    }
    return out;
}

double steady_state_reward(const ctmc::Ctmc& chain, const RewardStructure& reward) {
    ARCADE_ASSERT(reward.state_count() == chain.state_count(), "reward size mismatch");
    const auto pi = ctmc::steady_state(chain);
    return linalg::dot(pi, reward.state_rates());
}

}  // namespace arcade::rewards
