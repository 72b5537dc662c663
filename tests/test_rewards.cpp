// Unit tests: Markov reward measures against closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "ctmc/ctmc.hpp"
#include "linalg/kernels.hpp"
#include "rewards/rewards.hpp"
#include "support/errors.hpp"

namespace ctmc = arcade::ctmc;
namespace rw = arcade::rewards;
namespace la = arcade::linalg;

namespace {

ctmc::Ctmc two_state(double l, double m) {
    la::CsrBuilder b(2, 2);
    b.add(0, 1, l);
    b.add(1, 0, m);
    return ctmc::Ctmc(b.build(), {1.0, 0.0});
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Random chain on n states; with `absorbing`, state n-1 has no exits, and
/// with `zero_rates` no state has any.
ctmc::Ctmc random_chain(std::size_t n, std::mt19937& rng, bool absorbing, bool zero_rates) {
    la::CsrBuilder b(n, n);
    std::uniform_real_distribution<double> rate(0.05, 3.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    if (!zero_rates) {
        for (std::size_t s = 0; s + (absorbing ? 1 : 0) < n; ++s) {
            for (int e = 0; e < 3; ++e) {
                const std::size_t to = pick(rng);
                if (to != s) b.add(s, to, rate(rng));
            }
        }
    }
    std::vector<double> init(n, 0.0);
    init[0] = 1.0;
    return ctmc::Ctmc(b.build(), init);
}

/// Reward rates with zeros and negatives mixed in.
rw::RewardStructure mixed_rewards(std::size_t n, std::mt19937& rng) {
    std::uniform_real_distribution<double> value(-2.0, 5.0);
    std::vector<double> rates(n);
    for (std::size_t s = 0; s < n; ++s) rates[s] = s % 4 == 1 ? 0.0 : value(rng);
    return rw::RewardStructure("mixed", rates);
}

/// Every per-state value must be bitwise the single-distribution call on
/// point_distribution(n, s).
void expect_each_state_bitwise(const ctmc::Ctmc& chain, const rw::RewardStructure& reward,
                               double t, const std::string& what) {
    const std::size_t n = chain.state_count();
    const auto inst = rw::instantaneous_reward_from_each_state(chain, reward, t);
    const auto acc = rw::accumulated_reward_from_each_state(chain, reward, t);
    ASSERT_EQ(inst.size(), n) << what;
    ASSERT_EQ(acc.size(), n) << what;
    for (std::size_t s = 0; s < n; ++s) {
        const auto init = ctmc::Ctmc::point_distribution(n, s);
        EXPECT_TRUE(same_bits(inst[s], rw::instantaneous_reward(chain, init, reward, t)))
            << what << " instantaneous, state " << s;
        EXPECT_TRUE(same_bits(acc[s], rw::accumulated_reward(chain, init, reward, t)))
            << what << " accumulated, state " << s;
    }
}

}  // namespace

TEST(Rewards, InstantaneousTwoStateClosedForm) {
    // reward 1 in the down state: E[rho(X_t)] = p_down(t).
    const double l = 0.4;
    const double m = 1.1;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("down_time", {0.0, 1.0});
    for (double t : {0.2, 1.0, 6.0}) {
        const double p_down = l / (l + m) * (1.0 - std::exp(-(l + m) * t));
        EXPECT_NEAR(
            rw::instantaneous_reward(chain, chain.initial_distribution(), reward, t),
            p_down, 1e-10)
            << t;
    }
}

TEST(Rewards, AccumulatedIsIntegralOfInstantaneous) {
    // E[∫ rho] for the two-state chain has the closed form
    //   (l/(l+m)) * ( t - (1 - e^{-(l+m)t})/(l+m) ).
    const double l = 0.4;
    const double m = 1.1;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("down_time", {0.0, 1.0});
    for (double t : {0.5, 2.0, 10.0}) {
        const double s = l + m;
        const double expected = l / s * (t - (1.0 - std::exp(-s * t)) / s);
        EXPECT_NEAR(
            rw::accumulated_reward(chain, chain.initial_distribution(), reward, t),
            expected, 1e-9)
            << t;
    }
}

TEST(Rewards, AccumulatedOfConstantRewardIsTime) {
    // rho = c everywhere => E[∫_0^t rho] = c*t regardless of dynamics.
    const auto chain = two_state(0.9, 0.3);
    const rw::RewardStructure reward("const", {2.5, 2.5});
    for (double t : {0.1, 1.0, 13.0}) {
        EXPECT_NEAR(
            rw::accumulated_reward(chain, chain.initial_distribution(), reward, t),
            2.5 * t, 1e-9)
            << t;
    }
}

TEST(Rewards, SeriesAgreesWithPointSolvesAndIsMonotone) {
    const auto chain = two_state(0.6, 0.8);
    const rw::RewardStructure reward("r", {1.0, 3.0});
    const std::vector<double> times{0.0, 0.4, 1.0, 2.5, 8.0};
    const auto acc = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                   reward, times);
    const auto inst = rw::instantaneous_reward_series(chain, chain.initial_distribution(),
                                                      reward, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_NEAR(acc[i],
                    rw::accumulated_reward(chain, chain.initial_distribution(), reward,
                                           times[i]),
                    1e-8);
        EXPECT_NEAR(inst[i],
                    rw::instantaneous_reward(chain, chain.initial_distribution(), reward,
                                             times[i]),
                    1e-9);
        if (i > 0) EXPECT_GT(acc[i], acc[i - 1]);  // positive rewards accumulate
    }
    EXPECT_NEAR(acc[0], 0.0, 1e-12);
}

TEST(Rewards, SeriesClampsDuplicateGridPoints) {
    // An exactly-duplicated grid point is a zero-length interval: the series
    // value must repeat and equal the scalar solve at that time bit-for-bit
    // (the raw t - prev of a duplicate can be -0.0-ish and must be clamped,
    // never fed into the interval accumulator).
    const auto chain = two_state(0.7, 1.3);
    const rw::RewardStructure reward("r", {1.0, 4.0});
    const std::vector<double> times{0.0, 1.0, 1.0, 2.5};
    const auto acc = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                   reward, times);
    ASSERT_EQ(acc.size(), times.size());
    EXPECT_EQ(acc[1], acc[2]);
    EXPECT_EQ(acc[1],
              rw::accumulated_reward(chain, chain.initial_distribution(), reward, 1.0));
    // A point within the duplicate tolerance clamps too...
    const std::vector<double> nudged{1.0, 1.0 - 1e-13};
    const auto clamped = rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                       reward, nudged);
    EXPECT_EQ(clamped[0], clamped[1]);
    // ...but a genuinely decreasing grid is a caller error.
    const std::vector<double> decreasing{1.0, 0.5};
    EXPECT_THROW((void)rw::accumulated_reward_series(chain, chain.initial_distribution(),
                                                     reward, decreasing),
                 arcade::InvalidArgument);
}

TEST(Rewards, SteadyStateReward) {
    const double l = 0.25;
    const double m = 1.0;
    const auto chain = two_state(l, m);
    const rw::RewardStructure reward("r", {1.0, 5.0});
    const double pi_down = l / (l + m);
    EXPECT_NEAR(rw::steady_state_reward(chain, reward),
                (1.0 - pi_down) * 1.0 + pi_down * 5.0, 1e-9);
}

TEST(Rewards, InstantaneousConvergesToSteadyState) {
    const auto chain = two_state(0.5, 0.7);
    const rw::RewardStructure reward("r", {2.0, 9.0});
    const double at_large_t =
        rw::instantaneous_reward(chain, chain.initial_distribution(), reward, 200.0);
    EXPECT_NEAR(at_large_t, rw::steady_state_reward(chain, reward), 1e-8);
}

TEST(Rewards, FromEachStateIsBitwiseThePointDistributionCall) {
    // Sizes straddle the 32-state tile: one state, a partial tile, exactly
    // one, one plus a state, and two plus a partial third.
    for (const la::KernelMode mode : {la::KernelMode::Blocked, la::KernelMode::Scalar}) {
        const la::KernelMode before = la::kernel_mode();
        la::set_kernel_mode(mode);
        std::mt19937 rng(7);
        for (const std::size_t n : {1, 31, 32, 33, 67}) {
            const std::string what = "n=" + std::to_string(n) + " mode=" +
                                     std::to_string(static_cast<int>(mode));
            const auto chain = random_chain(n, rng, /*absorbing=*/true, /*zero_rates=*/false);
            const auto reward = mixed_rewards(n, rng);
            // t = 0, a moderate time, and λt well above 400.
            const double big_t = 450.0 / ctmc::uniformisation_rate(chain);
            for (const double t : {0.0, 1.7, big_t}) {
                expect_each_state_bitwise(chain, reward, t, what + " t=" + std::to_string(t));
            }
            const auto frozen = random_chain(n, rng, false, /*zero_rates=*/true);
            for (const double t : {0.0, 2.5}) {
                expect_each_state_bitwise(frozen, reward, t, what + " zero rates");
            }
        }
        la::set_kernel_mode(before);
    }
}

TEST(Rewards, FromEachStateKeepsThePreconditions) {
    // The same ARCADE_ASSERTs as the single-distribution calls: both abort.
    const auto chain = two_state(0.4, 1.1);
    const auto init = chain.initial_distribution();
    const rw::RewardStructure wrong_size("r", {1.0, 2.0, 3.0});
    const rw::RewardStructure reward("r", {1.0, 2.0});
    EXPECT_DEATH((void)rw::instantaneous_reward(chain, init, wrong_size, 1.0), "size mismatch");
    EXPECT_DEATH((void)rw::instantaneous_reward_from_each_state(chain, wrong_size, 1.0),
                 "size mismatch");
    EXPECT_DEATH((void)rw::accumulated_reward(chain, init, wrong_size, 1.0), "size mismatch");
    EXPECT_DEATH((void)rw::accumulated_reward_from_each_state(chain, wrong_size, 1.0),
                 "size mismatch");
    EXPECT_DEATH((void)rw::instantaneous_reward(chain, init, reward, -1.0), "negative time");
    EXPECT_DEATH((void)rw::instantaneous_reward_from_each_state(chain, reward, -1.0),
                 "negative time");
    EXPECT_DEATH((void)rw::accumulated_reward(chain, init, reward, -1.0), "negative time");
    EXPECT_DEATH((void)rw::accumulated_reward_from_each_state(chain, reward, -1.0),
                 "negative time");
}
