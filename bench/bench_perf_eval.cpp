// Evaluation-pipeline micro-benchmarks: the tree interpreter vs the expr
// bytecode VM on full state-space exploration (every paper strategy's
// line-2 reactive-modules translation, single-threaded so the numbers
// isolate per-state evaluation cost), and the scalar vs blocked CSR kernels
// on the matvec shapes the numeric core runs (distribution propagation and
// backward gather on a uniformised matrix), and the per-state CSRL reward
// loop vs its tiled pass.  All comparisons are between
// bitwise-identical computations — the speedup is pure evaluation
// mechanics, never a numerics change (asserted by test_eval_rewire).
//
// Results are MERGED into BENCH_engine.json via the same temp-JSON merge
// the lumping harness uses (bench_json.hpp: same-(bench, build, commit)
// rows are replaced in place, never duplicated), so the interp-vs-VM and
// scalar-vs-blocked rows ride the perf trajectory file.  --benchmark_out
// overrides as usual.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "arcade/modules_compiler.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "expr/vm.hpp"
#include "linalg/kernels.hpp"
#include "modules/explorer.hpp"
#include "prism/prism_parser.hpp"
#include "prism/prism_writer.hpp"
#include "rewards/rewards.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace expr = arcade::expr;
namespace linalg = arcade::linalg;
namespace modules = arcade::modules;
namespace rewards = arcade::rewards;
namespace wt = arcade::watertree;

namespace {

const modules::ModuleSystem& line2_system(const std::string& strategy) {
    static std::map<std::string, modules::ModuleSystem> cache;
    const auto it = cache.find(strategy);
    if (it != cache.end()) return it->second;
    return cache
        .emplace(strategy, core::to_reactive_modules(wt::line2(wt::strategy(strategy))))
        .first->second;
}

void run_explore(benchmark::State& state, const char* strategy, expr::EvalMode eval) {
    bench::stamp_build_type(state);
    const auto& system = line2_system(strategy);
    modules::ExploreOptions options;
    options.eval = eval;
    options.threads = 1;  // isolate per-state evaluation cost from sharding
    std::size_t states = 0;
    for (auto _ : state) {
        states = modules::explore(system, options).state_count();
        benchmark::DoNotOptimize(states);
    }
    state.counters["states"] = static_cast<double>(states);
    state.counters["states/s"] = benchmark::Counter(
        static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ExploreInterp(benchmark::State& state, const char* strategy) {
    run_explore(state, strategy, expr::EvalMode::Interp);
}
void BM_ExploreVm(benchmark::State& state, const char* strategy) {
    run_explore(state, strategy, expr::EvalMode::Vm);
}

BENCHMARK_CAPTURE(BM_ExploreInterp, l2_DED, "DED")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_DED, "DED")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FRF1, "FRF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FRF1, "FRF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FRF2, "FRF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FRF2, "FRF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FFF1, "FFF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FFF1, "FFF-1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreInterp, l2_FFF2, "FFF-2")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExploreVm, l2_FFF2, "FFF-2")->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel comparison on the uniformised FRF-1 line-2 chain (8129 states):
// P = I + Q/100, the matrix every transient and bounded-until step multiplies.
// ---------------------------------------------------------------------------

const linalg::CsrMatrix& frf1_uniformised() {
    static const linalg::CsrMatrix p = [] {
        return linalg::uniformise(modules::explore(line2_system("FRF-1")).chain.rates(),
                                  100.0);
    }();
    return p;
}

template <typename Fn>
void run_kernel(benchmark::State& state, linalg::KernelMode mode, Fn&& fn) {
    bench::stamp_build_type(state);
    const linalg::KernelMode before = linalg::kernel_mode();
    linalg::set_kernel_mode(mode);
    const auto& p = frf1_uniformised();
    std::vector<double> x(p.rows(), 1.0 / static_cast<double>(p.rows()));
    std::vector<double> y(p.rows(), 0.0);
    for (auto _ : state) {
        fn(p, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    linalg::set_kernel_mode(before);
    state.counters["nonzeros"] = static_cast<double>(p.nonzeros());
    state.counters["nnz/s"] = benchmark::Counter(static_cast<double>(p.nonzeros()),
                                                 benchmark::Counter::kIsIterationInvariantRate);
    // Matvec throughput at 2 flops per stored entry (multiply + accumulate).
    state.counters["gflops"] =
        benchmark::Counter(2.0e-9 * static_cast<double>(p.nonzeros()),
                           benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MatvecLeft(benchmark::State& state, linalg::KernelMode mode) {
    run_kernel(state, mode, [](const auto& m, const auto& x, auto& y) {
        linalg::multiply_left(m, x, y);
    });
}
void BM_MatvecRight(benchmark::State& state, linalg::KernelMode mode) {
    run_kernel(state, mode, [](const auto& m, const auto& x, auto& y) {
        linalg::multiply_right(m, x, y);
    });
}

BENCHMARK_CAPTURE(BM_MatvecLeft, scalar, linalg::KernelMode::Scalar);
BENCHMARK_CAPTURE(BM_MatvecLeft, blocked, linalg::KernelMode::Blocked);
BENCHMARK_CAPTURE(BM_MatvecRight, scalar, linalg::KernelMode::Scalar);
BENCHMARK_CAPTURE(BM_MatvecRight, blocked, linalg::KernelMode::Blocked);

// ---------------------------------------------------------------------------
// Per-state CSRL rewards on the line-2 DED chain read back from its PRISM
// text (512 states): R{"cost"}=? [ I=4.5 ] and [ C<=10 ] for every start
// state, as the checker answers nested reward operators.  each_state_loop
// is the reference — one forward transient per state — and tiled the
// rewards::*_reward_from_each_state pass; their values are bitwise equal.
// ---------------------------------------------------------------------------

const modules::ExploredModel& ded_prism_chain() {
    static const modules::ExploredModel model = [] {
        const std::string text = arcade::prism::write_prism(line2_system("DED"));
        modules::ExploreOptions options;
        options.symmetry = arcade::engine::SymmetryPolicy::Off;  // the full 512 states
        return modules::explore(arcade::prism::parse_prism(text), options);
    }();
    return model;
}

std::vector<double> each_state_loop(const arcade::ctmc::Ctmc& chain,
                                    const rewards::RewardStructure& cost, bool accumulated,
                                    double t) {
    const std::size_t n = chain.state_count();
    std::vector<double> values(n);
    for (std::size_t s = 0; s < n; ++s) {
        const auto init = arcade::ctmc::Ctmc::point_distribution(n, s);
        values[s] = accumulated ? rewards::accumulated_reward(chain, init, cost, t)
                                : rewards::instantaneous_reward(chain, init, cost, t);
    }
    return values;
}

void BM_PerStateReward(benchmark::State& state, bool tiled) {
    bench::stamp_build_type(state);
    const auto& model = ded_prism_chain();
    const auto& cost = model.reward_structures.at("cost");
    for (auto _ : state) {
        const auto inst = tiled
            ? rewards::instantaneous_reward_from_each_state(model.chain, cost, 4.5)
            : each_state_loop(model.chain, cost, false, 4.5);
        const auto acc = tiled
            ? rewards::accumulated_reward_from_each_state(model.chain, cost, 10.0)
            : each_state_loop(model.chain, cost, true, 10.0);
        benchmark::DoNotOptimize(inst.data());
        benchmark::DoNotOptimize(acc.data());
    }
    state.counters["states"] = static_cast<double>(model.chain.state_count());
}

BENCHMARK_CAPTURE(BM_PerStateReward, each_state_loop, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PerStateReward, tiled, true)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: unless --benchmark_out is given, results land in a temp JSON
// whose benchmark entries are appended into BENCH_engine.json, so the eval
// rows ride the same perf-trajectory file as the engine benchmarks.
int main(int argc, char** argv) {
    bench::warn_if_not_release();
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
            std::strcmp(argv[i], "--benchmark_out") == 0) {
            has_out = true;
        }
    }
    static char out_flag[] = "--benchmark_out=BENCH_eval.tmp.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    std::vector<char*> args(argv, argv + argc);
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!has_out) {
        if (bench::merge_benchmarks("BENCH_engine.json", "BENCH_eval.tmp.json",
                                    bench::build_type())) {
            std::remove("BENCH_eval.tmp.json");
            std::printf("merged eval rows into BENCH_engine.json\n");
        } else {
            std::printf("left results in BENCH_eval.tmp.json (no merge target)\n");
        }
    }
    return 0;
}
