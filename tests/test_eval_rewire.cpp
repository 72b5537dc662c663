// Whole-pipeline identity tests for the two performance rewirings of the
// evaluation stack, each against its test-only reference:
//
//  * the expr bytecode VM vs the tree interpreter must explore IDENTICAL
//    chains: same states in the same order, bitwise-equal rates, equal
//    label bitsets and reward vectors, on every watertree line/strategy's
//    reactive-modules translation;
//  * the blocked CSR kernels vs the scalar reference must render the whole
//    paper evaluation (sweep::paper::everything()) to a byte-identical CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "arcade/modules_compiler.hpp"
#include "expr/vm.hpp"
#include "linalg/kernels.hpp"
#include "modules/explorer.hpp"
#include "sweep/sweep.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace engine = arcade::engine;
namespace expr = arcade::expr;
namespace linalg = arcade::linalg;
namespace modules = arcade::modules;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

namespace {

bool same_double_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

modules::ExploredModel explore_with(const modules::ModuleSystem& system,
                                    expr::EvalMode eval) {
    modules::ExploreOptions options;
    options.eval = eval;
    return modules::explore(system, options);
}

void expect_identical_chains(const modules::ExploredModel& a,
                             const modules::ExploredModel& b, const std::string& what) {
    ASSERT_EQ(a.state_count(), b.state_count()) << what;
    for (std::size_t s = 0; s < a.state_count(); ++s) {
        ASSERT_EQ(a.valuation(s), b.valuation(s)) << what << " state " << s;
    }

    const auto& ra = a.chain.rates();
    const auto& rb = b.chain.rates();
    ASSERT_EQ(ra.row_ptr(), rb.row_ptr()) << what;
    ASSERT_EQ(ra.col_idx(), rb.col_idx()) << what;
    ASSERT_EQ(ra.values().size(), rb.values().size()) << what;
    for (std::size_t k = 0; k < ra.values().size(); ++k) {
        ASSERT_TRUE(same_double_bits(ra.values()[k], rb.values()[k]))
            << what << " rate entry " << k;
    }

    auto names_a = a.chain.label_names();
    auto names_b = b.chain.label_names();
    std::sort(names_a.begin(), names_a.end());
    std::sort(names_b.begin(), names_b.end());
    ASSERT_EQ(names_a, names_b) << what;
    for (const auto& name : names_a) {
        ASSERT_EQ(a.chain.label(name), b.chain.label(name)) << what << " label " << name;
    }

    ASSERT_EQ(a.reward_structures.size(), b.reward_structures.size()) << what;
    for (const auto& [name, ra_struct] : a.reward_structures) {
        const auto it = b.reward_structures.find(name);
        ASSERT_NE(it, b.reward_structures.end()) << what << " reward " << name;
        const auto& va = ra_struct.state_rates();
        const auto& vb = it->second.state_rates();
        ASSERT_EQ(va.size(), vb.size()) << what << " reward " << name;
        for (std::size_t s = 0; s < va.size(); ++s) {
            ASSERT_TRUE(same_double_bits(va[s], vb[s]))
                << what << " reward " << name << " state " << s;
        }
    }
}

/// everything() rendered to CSV with the requested kernel mode, in a fresh
/// session so no cached artefact crosses between the two runs.
std::string paper_csv(linalg::KernelMode mode) {
    const linalg::KernelMode before = linalg::kernel_mode();
    linalg::set_kernel_mode(mode);
    engine::AnalysisSession session;
    sweep::SweepRunner runner(session);
    const auto grid = sweep::paper::everything();
    const auto report = runner.run(grid);
    linalg::set_kernel_mode(before);
    std::ostringstream os;
    sweep::write_csv(report, grid, os);
    return os.str();
}

}  // namespace

// One case per (strategy, line) model, so a parallel test run spreads the
// line-1 individual translations (up to 111,809 states each) over workers.
struct ModelCase {
    const char* strategy;
    int line;
};

class ExploreIdentity : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ExploreIdentity, InterpAndVmExploreIdenticalChains) {
    const auto [name, line] = GetParam();
    const auto model =
        line == 1 ? wt::line1(wt::strategy(name)) : wt::line2(wt::strategy(name));
    const auto system = core::to_reactive_modules(model);
    const auto vm = explore_with(system, expr::EvalMode::Vm);
    const auto interp = explore_with(system, expr::EvalMode::Interp);
    expect_identical_chains(vm, interp, std::string(name) + " line " + std::to_string(line));
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ExploreIdentity,
    ::testing::Values(ModelCase{"DED", 1}, ModelCase{"FRF-1", 1}, ModelCase{"FRF-2", 1},
                      ModelCase{"FFF-1", 1}, ModelCase{"FFF-2", 1}, ModelCase{"DED", 2},
                      ModelCase{"FRF-1", 2}, ModelCase{"FRF-2", 2}, ModelCase{"FFF-1", 2},
                      ModelCase{"FFF-2", 2}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
        std::string name = info.param.strategy;
        name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
        return name + "_line" + std::to_string(info.param.line);
    });

TEST(EvalRewire, StatePredicateAgreesAcrossEvaluators) {
    const auto system = core::to_reactive_modules(wt::line2(wt::strategy("FRF-1")));
    const auto model = explore_with(system, expr::EvalMode::Vm);
    // An ad-hoc predicate over module variables exercises the compiled path.
    const auto predicate = expr::parse_expression(system.labels.begin()->second.to_string());
    const auto vm =
        modules::evaluate_state_predicate(model, system, predicate, expr::EvalMode::Vm);
    const auto interp =
        modules::evaluate_state_predicate(model, system, predicate, expr::EvalMode::Interp);
    EXPECT_EQ(vm, interp);
    EXPECT_EQ(vm, model.chain.label(system.labels.begin()->first));
}

TEST(EvalRewire, BlockedAndScalarKernelsRenderIdenticalPaperCsv) {
    const std::string blocked = paper_csv(linalg::KernelMode::Blocked);
    const std::string scalar = paper_csv(linalg::KernelMode::Scalar);
    ASSERT_FALSE(blocked.empty());
    EXPECT_EQ(blocked, scalar);
}

TEST(EvalRewire, KernelModeDefaultsAndOverrides) {
    const linalg::KernelMode before = linalg::kernel_mode();
    EXPECT_EQ(before, linalg::KernelMode::Blocked);
    linalg::set_kernel_mode(linalg::KernelMode::Scalar);
    EXPECT_EQ(linalg::kernel_mode(), linalg::KernelMode::Scalar);
    linalg::set_kernel_mode(linalg::KernelMode::Blocked);
    EXPECT_EQ(linalg::kernel_mode(), linalg::KernelMode::Blocked);
    linalg::set_kernel_mode(before);
    EXPECT_EQ(linalg::kernel_mode(), before);
}
