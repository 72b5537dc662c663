// Markov reward models: state reward rates attached to a CTMC, and the
// CSRL-style measures the paper uses —
//   R=? [I=t]   expected instantaneous reward rate at time t,
//   R=? [C<=t]  expected reward accumulated in [0,t],
//   R=? [S]     long-run average reward rate.
//
// Accumulated rewards use the uniformisation identity
//   E[∫_0^t rho(X_s) ds] = (1/L) * sum_k (1 - F_k(Lt)) * (pi_0 P^k) · rho
// where F_k is the Poisson cdf at rate Lt (Tijms & Veldman / standard
// Markov-reward uniformisation).
#ifndef ARCADE_REWARDS_REWARDS_HPP
#define ARCADE_REWARDS_REWARDS_HPP

#include <span>
#include <string>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"

namespace arcade::rewards {

/// Named state-reward structure (reward gained per unit of time in a state).
class RewardStructure {
public:
    RewardStructure() = default;
    RewardStructure(std::string name, std::vector<double> state_rates);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<double>& state_rates() const noexcept { return rates_; }
    [[nodiscard]] std::size_t state_count() const noexcept { return rates_.size(); }

private:
    std::string name_;
    std::vector<double> rates_;
};

/// E[rho(X_t)] — instantaneous expected reward rate at time t.
[[nodiscard]] double instantaneous_reward(const ctmc::Ctmc& chain,
                                          std::span<const double> initial,
                                          const RewardStructure& reward, double t,
                                          const ctmc::TransientOptions& options = {});

/// Instantaneous reward on an ascending time grid (shared evolver).
[[nodiscard]] std::vector<double> instantaneous_reward_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, const RewardStructure& reward,
    std::span<const double> times, const ctmc::TransientOptions& options = {});

/// E[∫_0^t rho(X_s) ds] — expected accumulated reward over [0,t].
[[nodiscard]] double accumulated_reward(const ctmc::Ctmc& chain,
                                        std::span<const double> initial,
                                        const RewardStructure& reward, double t,
                                        const ctmc::TransientOptions& options = {});

/// Accumulated reward on an ascending time grid.  Increments are evaluated
/// per grid interval from the evolving distribution, so the cost is
/// comparable to one transient series.
[[nodiscard]] std::vector<double> accumulated_reward_series(
    const ctmc::Ctmc& chain, std::span<const double> initial, const RewardStructure& reward,
    std::span<const double> times, const ctmc::TransientOptions& options = {});

/// E[rho(X_t) | X_0 = s] for every state s — the per-state values a nested
/// CSRL R[I=t] operator needs.  Value `s` is, bit for bit,
///   instantaneous_reward(chain, Ctmc::point_distribution(n, s), reward, t, options)
/// under either linalg::KernelMode.  P = I + Q/λ and the Fox–Glynn weights
/// are built once per call; 32 start states then advance together, so one
/// sweep over P steps 32 forward transients.  The tile scratch (three n × 32
/// blocks, 768 B per state) is borrowed from options.workspace when set.
/// Throws like instantaneous_reward on a size mismatch or t < 0.
[[nodiscard]] std::vector<double> instantaneous_reward_from_each_state(
    const ctmc::Ctmc& chain, const RewardStructure& reward, double t,
    const ctmc::TransientOptions& options = {});

/// E[∫_0^t rho(X_u) du | X_0 = s] for every state s, with the same per-state
/// bit contract (against accumulated_reward), tiling, scratch and
/// preconditions as instantaneous_reward_from_each_state.
[[nodiscard]] std::vector<double> accumulated_reward_from_each_state(
    const ctmc::Ctmc& chain, const RewardStructure& reward, double t,
    const ctmc::TransientOptions& options = {});

/// Long-run average reward rate (steady-state weighted reward).
[[nodiscard]] double steady_state_reward(const ctmc::Ctmc& chain,
                                         const RewardStructure& reward);

}  // namespace arcade::rewards

#endif  // ARCADE_REWARDS_REWARDS_HPP
