// Unit tests: CTMC transient/steady-state/bounded-until against closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ctmc/bounded_until.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "support/errors.hpp"

namespace ctmc = arcade::ctmc;
namespace la = arcade::linalg;

namespace {

ctmc::Ctmc two_state(double l, double m) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, l);
    if (m > 0.0) b.add(1, 0, m);
    return ctmc::Ctmc(b.build(), {1.0, 0.0});
}

/// Erlang chain: k sequential exp(rate) stages 0 -> 1 -> ... -> k.
ctmc::Ctmc erlang(int k, double rate) {
    la::CsrBuilder b(k + 1, k + 1);
    for (int i = 0; i < k; ++i) b.add(i, i + 1, rate);
    std::vector<double> init(k + 1, 0.0);
    init[0] = 1.0;
    return ctmc::Ctmc(b.build(), std::move(init));
}

}  // namespace

TEST(Transient, PureDeathMatchesExponential) {
    const auto chain = two_state(0.5, 0.0);
    for (double t : {0.1, 1.0, 5.0}) {
        const auto dist =
            ctmc::transient_distribution(chain, chain.initial_distribution(), t);
        EXPECT_NEAR(dist[0], std::exp(-0.5 * t), 1e-10) << t;
        EXPECT_NEAR(dist[1], 1.0 - std::exp(-0.5 * t), 1e-10) << t;
    }
}

TEST(Transient, TwoStateClosedForm) {
    // p_up(t) = m/(l+m) + l/(l+m) e^{-(l+m)t}
    const double l = 0.2;
    const double m = 1.5;
    const auto chain = two_state(l, m);
    for (double t : {0.3, 2.0, 10.0}) {
        const auto dist =
            ctmc::transient_distribution(chain, chain.initial_distribution(), t);
        const double expected = m / (l + m) + l / (l + m) * std::exp(-(l + m) * t);
        EXPECT_NEAR(dist[0], expected, 1e-10) << t;
    }
}

TEST(Transient, SeriesSteppingAgreesWithDirectSolves) {
    const auto chain = two_state(0.7, 0.9);
    const std::vector<double> times{0.0, 0.5, 1.0, 2.5, 7.0};
    const auto series =
        ctmc::transient_series(chain, chain.initial_distribution(), times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        const auto direct =
            ctmc::transient_distribution(chain, chain.initial_distribution(), times[i]);
        EXPECT_NEAR(series[i][0], direct[0], 1e-9) << "t=" << times[i];
        EXPECT_NEAR(series[i][1], direct[1], 1e-9);
    }
}

TEST(Transient, ErlangStageDistributionIsPoissonTruncated) {
    // P(X_t in stage j) for the Erlang chain = Poisson pmf / tail.
    const int k = 4;
    const double rate = 2.0;
    const double t = 1.3;
    const auto chain = erlang(k, rate);
    const auto dist = ctmc::transient_distribution(chain, chain.initial_distribution(), t);
    double tail = 1.0;
    for (int j = 0; j < k; ++j) {
        const double pmf = std::exp(-rate * t) * std::pow(rate * t, j) / std::tgamma(j + 1.0);
        EXPECT_NEAR(dist[j], pmf, 1e-10) << j;
        tail -= pmf;
    }
    EXPECT_NEAR(dist[k], tail, 1e-10);
}

TEST(SteadyState, IrreducibleTwoState) {
    const double l = 1.0 / 100.0;
    const double m = 0.5;
    const auto chain = two_state(l, m);
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], m / (l + m), 1e-10);
}

TEST(SteadyState, AbsorbingChainConcentratesInBsccs) {
    // 0 -> 1 (rate 1) and 0 -> 2 (rate 3); 1, 2 absorbing.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], 0.0, 1e-12);
    EXPECT_NEAR(pi[1], 0.25, 1e-9);
    EXPECT_NEAR(pi[2], 0.75, 1e-9);
}

TEST(SteadyState, MixtureOfInitialStates) {
    // Two disconnected 2-state chains; initial mass 0.3 / 0.7.
    la::CsrBuilder b(4, 4);
    b.add(0, 1, 1.0);
    b.add(1, 0, 1.0);   // chain A: pi = (1/2, 1/2)
    b.add(2, 3, 1.0);
    b.add(3, 2, 3.0);   // chain B: pi = (3/4, 1/4)
    const ctmc::Ctmc chain(b.build(), {0.3, 0.0, 0.7, 0.0});
    const auto pi = ctmc::steady_state(chain);
    EXPECT_NEAR(pi[0], 0.15, 1e-9);
    EXPECT_NEAR(pi[1], 0.15, 1e-9);
    EXPECT_NEAR(pi[2], 0.525, 1e-9);
    EXPECT_NEAR(pi[3], 0.175, 1e-9);
}

TEST(ReachabilityProbability, BranchingClosedForm) {
    // 0 -> 1 rate 1, 0 -> 2 rate 3; target {2}: p = 3/4 from 0.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> allowed(3, true);
    std::vector<bool> target{false, false, true};
    const auto p = ctmc::reachability_probability(chain, allowed, target);
    EXPECT_NEAR(p[0], 0.75, 1e-10);
    EXPECT_NEAR(p[1], 0.0, 1e-12);
    EXPECT_NEAR(p[2], 1.0, 1e-12);
}

TEST(BoundedUntil, ErlangFirstPassageClosedForm) {
    // P(reach final stage of Erlang(2, r) by t) = 1 - e^{-rt}(1 + rt).
    const double r = 1.7;
    const auto chain = erlang(2, r);
    std::vector<bool> phi(3, true);
    std::vector<bool> psi{false, false, true};
    for (double t : {0.5, 1.0, 3.0}) {
        const double expected = 1.0 - std::exp(-r * t) * (1.0 + r * t);
        EXPECT_NEAR(ctmc::bounded_until_probability(chain, chain.initial_distribution(),
                                                    phi, psi, t),
                    expected, 1e-10)
            << t;
    }
}

TEST(BoundedUntil, PhiRestrictionBlocksDetours) {
    // 0 -> 1 -> 2, but phi excludes 1: P(0 |= phi U<=t {2}) = 0.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(1, 2, 1.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> phi{true, false, true};
    std::vector<bool> psi{false, false, true};
    EXPECT_NEAR(
        ctmc::bounded_until_probability(chain, chain.initial_distribution(), phi, psi, 50.0),
        0.0, 1e-12);
}

TEST(BoundedUntil, AllStatesBackwardAgreesWithForward) {
    const auto chain = erlang(3, 0.9);
    std::vector<bool> phi(4, true);
    std::vector<bool> psi{false, false, false, true};
    const double t = 2.2;
    const auto per_state = ctmc::bounded_until_all_states(chain, phi, psi, t);
    for (std::size_t s = 0; s < 4; ++s) {
        const auto init = ctmc::Ctmc::point_distribution(4, s);
        EXPECT_NEAR(per_state[s],
                    ctmc::bounded_until_probability(chain, init, phi, psi, t), 1e-9)
            << s;
    }
}

TEST(BoundedUntil, SeriesIsMonotoneAndMatchesPointSolves) {
    const auto chain = erlang(2, 1.0);
    std::vector<bool> phi(3, true);
    std::vector<bool> psi{false, false, true};
    const std::vector<double> times{0.0, 0.5, 1.0, 2.0, 4.0};
    const auto series = ctmc::bounded_until_series(chain, chain.initial_distribution(), phi,
                                                   psi, times);
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series[i] + 1e-12, series[i - 1]);  // monotone in t
    }
    EXPECT_NEAR(series[0], 0.0, 1e-12);
}

TEST(Transient, AdvanceToDuplicateTimeIsANoOp) {
    const auto chain = two_state(0.7, 0.9);
    ctmc::TransientEvolver evolver(chain, chain.initial_distribution());
    evolver.advance_to(1.0);
    const auto at_one = evolver.distribution();
    evolver.advance_to(1.0);             // exact duplicate
    evolver.advance_to(1.0 - 0.5e-12);   // duplicate within tolerance
    EXPECT_DOUBLE_EQ(evolver.time(), 1.0);  // time never moves backwards
    EXPECT_EQ(evolver.distribution(), at_one);
}

TEST(Transient, AdvanceToDecreasingTimeThrows) {
    const auto chain = two_state(0.7, 0.9);
    ctmc::TransientEvolver evolver(chain, chain.initial_distribution());
    evolver.advance_to(2.0);
    EXPECT_THROW(evolver.advance_to(1.0), arcade::InvalidArgument);
    EXPECT_DOUBLE_EQ(evolver.time(), 2.0);  // failed call left the state alone
}

TEST(BoundedUntil, AllStatesOnZeroRateChainIsExactIndicator) {
    // With phi empty every state of the transformed chain is absorbing: the
    // result must be the exact psi indicator, not a near-zero-rate
    // uniformisation approximation of it.
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.0);
    b.add(1, 2, 2.0);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    std::vector<bool> phi{false, false, false};
    std::vector<bool> psi{true, false, true};
    const auto v = ctmc::bounded_until_all_states(chain, phi, psi, 10.0);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(BoundedUntil, ForwardBackwardAgreeOnRandomChains) {
    // Property: for any chain, bounded_until_probability from a point
    // distribution at s equals bounded_until_all_states(...)[s].
    std::mt19937 rng(20260729);
    std::uniform_real_distribution<double> rate(0.1, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 3 + static_cast<std::size_t>(trial) % 4;
        la::CsrBuilder b(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j && unit(rng) < 0.5) b.add(i, j, rate(rng));
            }
        }
        const ctmc::Ctmc chain(b.build(), ctmc::Ctmc::point_distribution(n, 0));
        std::vector<bool> phi(n), psi(n);
        for (std::size_t s = 0; s < n; ++s) {
            phi[s] = unit(rng) < 0.7;
            psi[s] = unit(rng) < 0.3;
        }
        const double t = 0.25 + 2.0 * unit(rng);
        const auto per_state = ctmc::bounded_until_all_states(chain, phi, psi, t);
        for (std::size_t s = 0; s < n; ++s) {
            const auto init = ctmc::Ctmc::point_distribution(n, s);
            EXPECT_NEAR(per_state[s],
                        ctmc::bounded_until_probability(chain, init, phi, psi, t), 1e-9)
                << "trial=" << trial << " s=" << s;
        }
    }
}

TEST(Ctmc, MakeAbsorbingDropsTransitions) {
    const auto chain = two_state(1.0, 2.0);
    std::vector<bool> absorbing{false, true};
    const auto transformed = chain.make_absorbing(absorbing);
    EXPECT_EQ(transformed.transition_count(), 1u);
    EXPECT_DOUBLE_EQ(transformed.exit_rate(1), 0.0);
}

TEST(Ctmc, ValidationRejectsBadInputs) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 1.0);
    EXPECT_NO_THROW(ctmc::Ctmc(b.build(), {1.0, 0.0}));
    la::CsrBuilder b2(2, 2);
    b2.add(0, 1, 1.0);
    EXPECT_THROW(ctmc::Ctmc(b2.build(), {0.7, 0.0}), std::exception);  // mass != 1
}

TEST(Ctmc, ExitRatesAreCachedAtConstructionAndIgnoreDiagonal) {
    la::CsrBuilder b(3, 3);
    b.add(0, 1, 1.5);
    b.add(0, 2, 2.5);
    b.add(0, 0, 7.0);  // diagonal entries never count towards exit rates
    b.add(1, 2, 0.25);
    const ctmc::Ctmc chain(b.build(), {1.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(chain.exit_rate(0), 4.0);
    EXPECT_DOUBLE_EQ(chain.exit_rate(1), 0.25);
    EXPECT_DOUBLE_EQ(chain.exit_rate(2), 0.0);
    EXPECT_DOUBLE_EQ(chain.max_exit_rate(), 4.0);
    // Derived chains recompute their own cache.
    const auto absorbed = chain.make_absorbing({true, false, false});
    EXPECT_DOUBLE_EQ(absorbed.exit_rate(0), 0.0);
    EXPECT_DOUBLE_EQ(absorbed.max_exit_rate(), 0.25);
}
