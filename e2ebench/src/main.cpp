// arcade_e2e — the end-to-end benchmark program (driven by e2ebench/run.py).
//
// Every operation runs one workload on a fresh engine::AnalysisSession,
// through public library functions only, and its outputs are compared with
// references recorded in e2ebench/references/.  No ARCADE_* environment
// switch is read or set here: eval, kernel, batch and lint modes stay at the
// library defaults, so a later change to one of those modes is measured as
// a user would get it.  The only pinned inputs are each workload's
// encoding, reduction policy and symmetry policy.
//
//   arcade_e2e measure --workload W --seed N --seconds S --threads T --refs DIR
//       The process's first operation is the set-up sample (wall time from
//       main() to its end); further operations run back to back (one
//       client, closed loop) until S seconds have passed.  With S = 0 the
//       process stops after the set-up sample.
//   arcade_e2e trace --workload W --seed N --seconds S --refs DIR --trace-out F
//       Single-threaded: a warm-up operation, one untraced operation through
//       the library's own entry points (SweepRunner::run), then operations
//       replayed call by call with a span around every call into a layer,
//       then kernel probes.  Writes Chrome trace-event JSON to F.
//   arcade_e2e record --workload W --refs DIR
//       Writes the reference outputs of one operation.
//
// Each mode prints one JSON object as its last line of standard output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/lint.hpp"
#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/modules_compiler.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/transient.hpp"
#include "engine/session.hpp"
#include "logic/csl.hpp"
#include "md5.hpp"
#include "numeric/fox_glynn.hpp"
#include "prism/prism_parser.hpp"
#include "prism/prism_writer.hpp"
#include "support/errors.hpp"
#include "sweep/export.hpp"
#include "sweep/paper.hpp"
#include "sweep/runner.hpp"
#include "sweep/studies.hpp"
#include "trace.hpp"
#include "watertree/watertree.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

namespace core = arcade::core;
namespace ctmc = arcade::ctmc;
namespace engine = arcade::engine;
namespace sweep = arcade::sweep;
namespace wt = arcade::watertree;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One scenario grid of a sweep workload with its pinned policies.
struct GridSpec {
    std::string name;
    sweep::ScenarioGrid grid;
    core::ReductionPolicy reduction = core::ReductionPolicy::Off;
    core::SymmetryPolicy symmetry = core::SymmetryPolicy::Off;
};

sweep::ScenarioGrid individual_everything() {
    auto grid = sweep::paper::everything();
    grid.variants = {sweep::individual_variant()};
    return grid;
}

/// The grids of a sweep workload; empty for `modules`, throws on an unknown
/// name.
std::vector<GridSpec> sweep_grids(const std::string& workload) {
    using RP = core::ReductionPolicy;
    using SP = core::SymmetryPolicy;
    if (workload == "paper") return {{"paper", sweep::paper::everything(), RP::Off, SP::Off}};
    if (workload == "individual") {
        return {{"individual", individual_everything(), RP::Off, SP::Off}};
    }
    if (workload == "reduced") {
        return {{"individual-lumped", individual_everything(), RP::Auto, SP::Off},
                {"pump-scaling-8", sweep::studies::pump_scaling(8), RP::Off, SP::Auto}};
    }
    if (workload == "modules") return {};
    throw arcade::InvalidArgument("unknown workload '" + workload + "'");
}

/// The four CSL queries every line-2 model answers, and the two per-state
/// reward queries answered on the dedicated-repair (DED) model only: the
/// checker evaluates those with one forward transient per state.
const std::vector<std::string> kQueries = {
    "S=? [ \"operational\" ]",
    "P=? [ true U<=24 \"down\" ]",
    "P=? [ true U<=100 \"total_failure\" ]",
    "R{\"cost\"}=? [ S ]",
};
const std::vector<std::string> kDedQueries = {
    "R{\"cost\"}=? [ I=4.5 ]",
    "R{\"cost\"}=? [ C<=10 ]",
};

/// Span name of a query, by the checker path it takes.
const char* query_layer(const std::string& query) {
    if (query.find("U<=") != std::string::npos) return "csl.until";
    if (query.find("I=") != std::string::npos || query.find("C<=") != std::string::npos) {
        return "csl.reward_transient";
    }
    return "csl.steady";
}

/// Seeded Fisher–Yates over std::mt19937_64 (whose output sequence the
/// standard fixes), so a seed gives the same order with every library.
template <typename T>
void permute(std::vector<T>& items, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng() % i);
        std::swap(items[i - 1], items[j]);
    }
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t stream) {
    return seed * 0x9e3779b97f4a7c15ULL + stream;
}

// ---------------------------------------------------------------------------
// One operation's outputs and their check against the references
// ---------------------------------------------------------------------------

struct ModuleOutput {
    std::string strategy;
    std::size_t states = 0;
    std::size_t transitions = 0;
    int lint_errors = 0;
    int lint_warnings = 0;
    std::vector<std::pair<std::string, double>> queries;
};

struct OpResult {
    /// Sweep workloads: one report per grid, results in work-item index
    /// (expand) order, plus the exported CSV of that report.
    std::vector<sweep::SweepReport> reports;
    std::vector<std::string> csvs;
    std::vector<ModuleOutput> modules;
    std::size_t results = 0;  ///< result cells, or checked queries
};

std::string hex_bits(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
    return buf;
}

/// Output id -> (digest, human-readable label).
using Outputs = std::map<std::string, std::pair<std::string, std::string>>;

std::string export_csv(const sweep::SweepReport& report, const sweep::ScenarioGrid& grid) {
    std::ostringstream os;
    sweep::write_csv(report, grid, os);
    return os.str();
}

/// Restores expand order, so the export (and its digest) does not depend on
/// the seed's permutation of the work list.
void sort_by_index(sweep::SweepReport& report) {
    std::stable_sort(report.results.begin(), report.results.end(),
                     [](const sweep::ScenarioResult& a, const sweep::ScenarioResult& b) {
                         return a.item.index < b.item.index;
                     });
}

Outputs digest(const std::vector<GridSpec>& grids, const OpResult& op) {
    Outputs out;
    for (std::size_t g = 0; g < op.reports.size(); ++g) {
        const std::string& name = grids[g].name;
        out["csv:" + name] = {e2e::md5_hex(op.csvs[g]), name + " CSV md5"};
        for (const auto& r : op.reports[g].results) {
            // Cells are compared by WorkItem::key, never by position.
            const std::string key = r.item.key();
            e2e::Md5 md5;
            for (double v : r.values) md5.update(&v, sizeof v);
            md5.update(std::to_string(r.model_states) + "/" +
                       std::to_string(r.model_transitions) + "/" +
                       hex_bits(r.model_full_states));
            std::string label = "line" + std::to_string(r.item.line) + " " + r.item.strategy +
                                " " + sweep::to_string(r.item.measure.kind) + " " +
                                sweep::to_string(r.item.measure.disaster);
            if (!r.item.scale.is_default()) label += " " + r.item.scale.name;
            out["cell:" + name + ":" + e2e::md5_hex(key).substr(0, 20)] = {md5.hex(), label};
        }
    }
    for (const auto& m : op.modules) {
        out["modules:" + m.strategy + ":chain"] = {
            std::to_string(m.states) + "/" + std::to_string(m.transitions),
            "explored states/transitions"};
        out["modules:" + m.strategy + ":lint"] = {
            std::to_string(m.lint_errors) + "/" + std::to_string(m.lint_warnings),
            "lint errors/warnings"};
        for (const auto& [query, value] : m.queries) {
            out["modules:" + m.strategy + ":" + query] = {hex_bits(value), "exact bits"};
        }
    }
    return out;
}

std::string reference_path(const std::string& dir, const std::string& workload) {
    return dir + "/" + workload + ".tsv";
}

void write_reference(const std::string& path, const Outputs& outputs) {
    std::ofstream os(path);
    if (!os) throw arcade::InvalidArgument("cannot write " + path);
    os << "# id\tdigest\tlabel\n";
    for (const auto& [id, entry] : outputs) {
        os << id << '\t' << entry.first << '\t' << entry.second << '\n';
    }
}

Outputs read_reference(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw arcade::InvalidArgument("missing reference file " + path);
    Outputs out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto a = line.find('\t');
        const auto b = line.find('\t', a + 1);
        if (a == std::string::npos || b == std::string::npos) {
            throw arcade::InvalidArgument("malformed reference line in " + path);
        }
        out[line.substr(0, a)] = {line.substr(a + 1, b - a - 1), line.substr(b + 1)};
    }
    if (out.empty()) throw arcade::InvalidArgument("empty reference file " + path);
    return out;
}

/// Number of outputs that are missing, extra or different; the first few
/// are reported on stderr.
std::size_t mismatches(const Outputs& got, const Outputs& want, bool report) {
    std::size_t bad = 0;
    const auto note = [&](const std::string& what) {
        if (report && bad <= 5) std::cerr << "arcade_e2e: output mismatch: " << what << "\n";
    };
    for (const auto& [id, entry] : want) {
        const auto it = got.find(id);
        if (it == got.end()) {
            ++bad;
            note("missing " + id + " (" + entry.second + ")");
        } else if (it->second.first != entry.first) {
            ++bad;
            note(id + " (" + entry.second + "): " + it->second.first + " != " + entry.first);
        }
    }
    for (const auto& [id, entry] : got) {
        if (want.find(id) == want.end()) {
            ++bad;
            note("unexpected " + id);
        }
    }
    return bad;
}

/// Self-test of the check: nudging one result value by one ulp must make
/// the comparison fail (for sweeps, both the cell and the CSV digest).
bool check_fires(const std::vector<GridSpec>& grids, OpResult op, const Outputs& want) {
    std::size_t expected = 0;
    if (!op.reports.empty()) {
        auto& value = op.reports.front().results.front().values.front();
        value = std::nextafter(value, INFINITY);
        op.csvs.front() = export_csv(op.reports.front(), grids.front().grid);
        expected = 2;
    } else if (!op.modules.empty()) {
        auto& value = op.modules.front().queries.front().second;
        value = std::nextafter(value, INFINITY);
        expected = 1;
    }
    return expected > 0 && mismatches(digest(grids, op), want, false) == expected;
}

// ---------------------------------------------------------------------------
// Per-layer accounting for the traced run
// ---------------------------------------------------------------------------

struct LayerCounts {
    double compile_calls = 0, compile_states = 0, compile_transitions = 0;
    double steady_calls = 0, transient_calls = 0, transient_grid_points = 0;
    double csl_queries = 0, prism_bytes = 0, export_bytes = 0;
    double explore_states = 0, chain_bytes = 0;
    engine::SessionStats stats;
    /// Largest chain (by stored transitions) the operation built, with its
    /// owner kept alive for the kernel probes.
    std::shared_ptr<const ctmc::Ctmc> largest;
};

double csr_bytes(const ctmc::Ctmc& chain) {
    const auto& m = chain.rates();
    return static_cast<double>(m.values().size() * sizeof(double) +
                               m.col_idx().size() * sizeof(std::size_t) +
                               m.row_ptr().size() * sizeof(std::size_t));
}

/// CSR plus the chain's per-state vectors (initial distribution, exit rates).
double chain_bytes(const ctmc::Ctmc& chain) {
    return csr_bytes(chain) + 2.0 * static_cast<double>(chain.state_count() * sizeof(double));
}

void consider_largest(LayerCounts& counts, std::shared_ptr<const ctmc::Ctmc> chain) {
    if (!counts.largest || chain->transition_count() > counts.largest->transition_count()) {
        counts.largest = std::move(chain);
    }
}

/// Accumulates the counters the traced run reports (SessionStats offers
/// only a difference operator).
void add_stats(engine::SessionStats& total, const engine::SessionStats& s) {
    total.compile_hits += s.compile_hits;
    total.compile_misses += s.compile_misses;
    total.steady_state_hits += s.steady_state_hits;
    total.steady_state_misses += s.steady_state_misses;
    total.lump_states_in += s.lump_states_in;
    total.lump_states_out += s.lump_states_out;
    total.symmetry_states_in += s.symmetry_states_in;
    total.symmetry_states_out += s.symmetry_states_out;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 1;
};

/// expand() plus the seed's permutation of the work list.
std::vector<sweep::WorkItem> work_list(const GridSpec& spec, std::uint64_t seed,
                                       std::size_t stream) {
    auto items = sweep::expand(spec.grid);
    permute(items, stream_seed(seed, stream));
    return items;
}

core::Disaster make_disaster(sweep::DisasterKind kind, const core::CompiledModel& model) {
    switch (kind) {
        case sweep::DisasterKind::None: {
            core::Disaster d;
            d.name = "none";
            d.failed_per_phase.assign(model.model().phases.size(), 0);
            return d;
        }
        case sweep::DisasterKind::AllPumps: return wt::disaster1(model.model());
        case sweep::DisasterKind::Mixed: return wt::disaster2();
    }
    throw arcade::InvalidArgument("unknown DisasterKind");
}

/// One cell evaluated call by call, with a span around each layer call: the
/// calls SweepRunner makes for the cell, except that the runner compiles
/// every model in a barrier first while this compiles at first use.
sweep::ScenarioResult traced_cell(engine::AnalysisSession& session, const GridSpec& spec,
                                  const sweep::WorkItem& item, e2e::Tracer& tracer,
                                  LayerCounts& counts) {
    using sweep::MeasureKind;
    const auto& measure = item.measure;
    const bool with_repair =
        item.variant.repair && measure.kind != MeasureKind::Reliability &&
        !(measure.kind == MeasureKind::Property && measure.strip_repair);

    engine::AnalysisSession::CompiledPtr model;
    core::ArcadeModel arcade_model;
    const std::size_t misses_before = session.stats().compile_misses;
    {
        e2e::Scope span(&tracer, "compile");
        arcade_model = wt::line(item.line, wt::strategy(item.strategy),
                                spec.grid.parameters[item.parameter_index].params,
                                item.scale.extra_pumps);
        if (!with_repair) arcade_model = core::without_repair(arcade_model);
        core::CompileOptions options;
        options.encoding = item.variant.encoding;
        options.reduction = spec.reduction;
        options.symmetry = spec.symmetry;
        model = session.compile(arcade_model, options);
    }
    ++counts.compile_calls;
    if (session.stats().compile_misses != misses_before) {
        counts.compile_states += static_cast<double>(model->state_count());
        counts.compile_transitions += static_cast<double>(model->transition_count());
        counts.chain_bytes += chain_bytes(model->chain());
        consider_largest(counts, std::shared_ptr<const ctmc::Ctmc>(model, &model->chain()));
        // The compile stage lints the model's reactive-modules translation
        // internally; the same call, timed from outside, is subtracted from
        // compile self time.
        if (arcade::analysis::default_lint_level() != arcade::analysis::LintLevel::Off) {
            e2e::Scope span(&tracer, "probe.lint");
            try {
                (void)arcade::analysis::lint(core::to_reactive_modules(arcade_model));
            } catch (const arcade::ModelError&) {
                // Outside the translation's fragment: the stage skips it too.
            }
        }
    }
    if (spec.reduction == core::ReductionPolicy::Auto &&
        measure.kind != MeasureKind::StateSpace) {
        const std::size_t lump_misses = session.stats().lump_misses;
        std::shared_ptr<const ctmc::QuotientCtmc> quotient;
        {
            e2e::Scope span(&tracer, "lump");
            quotient = session.quotient(model);
        }
        if (session.stats().lump_misses != lump_misses) {
            counts.chain_bytes += chain_bytes(quotient->chain());
        }
    }
    const auto transient = core::session_transient(session);

    sweep::ScenarioResult result;
    result.item = item;
    result.model_states = model->state_count();
    result.model_transitions = model->transition_count();
    result.model_full_states = model->symmetry_full_states();
    if (measure.is_series()) {
        ++counts.transient_calls;
        counts.transient_grid_points += static_cast<double>(measure.times.size());
    }
    switch (measure.kind) {
        case MeasureKind::Availability: {
            e2e::Scope span(&tracer, "steady");
            ++counts.steady_calls;
            result.values = {core::availability(session, model)};
            break;
        }
        case MeasureKind::SteadyStateCost: {
            e2e::Scope span(&tracer, "steady");
            ++counts.steady_calls;
            result.values = {core::steady_state_cost(session, model)};
            break;
        }
        case MeasureKind::StateSpace:
            result.values = {static_cast<double>(model->state_count())};
            break;
        case MeasureKind::Reliability: {
            e2e::Scope span(&tracer, "transient.reliability");
            result.values = core::reliability_series(*model, measure.times, transient);
            break;
        }
        case MeasureKind::Survivability: {
            e2e::Scope span(&tracer, "transient.survivability");
            result.values = core::survivability_series(
                *model, make_disaster(measure.disaster, *model), measure.service_level,
                measure.times, transient);
            break;
        }
        case MeasureKind::InstantaneousCost: {
            e2e::Scope span(&tracer, "transient.instantaneous_cost");
            result.values = core::instantaneous_cost_series(
                *model, make_disaster(measure.disaster, *model), measure.times, transient);
            break;
        }
        case MeasureKind::AccumulatedCost: {
            e2e::Scope span(&tracer, "transient.accumulated_cost");
            result.values = core::accumulated_cost_series(
                *model, make_disaster(measure.disaster, *model), measure.times, transient);
            break;
        }
        case MeasureKind::Property:
            throw arcade::InvalidArgument("property cells are not part of any workload");
    }
    return result;
}

OpResult sweep_op(const RunConfig& config, const std::vector<GridSpec>& grids,
                  e2e::Tracer* tracer, LayerCounts* counts) {
    engine::AnalysisSession session;
    OpResult op;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        const GridSpec& spec = grids[g];
        std::vector<sweep::WorkItem> items;
        {
            e2e::Scope span(tracer, "sweep.expand");
            items = work_list(spec, config.seed, g);
        }
        sweep::SweepReport report;
        if (tracer == nullptr) {
            sweep::RunnerOptions options;
            options.threads = config.threads;
            options.reduction = spec.reduction;
            options.symmetry = spec.symmetry;
            report = sweep::SweepRunner(session, options).run(spec.grid, items);
        } else {
            for (const auto& item : items) {
                report.results.push_back(traced_cell(session, spec, item, *tracer, *counts));
            }
        }
        {
            e2e::Scope span(tracer, "sweep.export");
            sort_by_index(report);
            op.csvs.push_back(export_csv(report, spec.grid));
        }
        if (counts != nullptr) counts->export_bytes += static_cast<double>(op.csvs.back().size());
        op.results += report.results.size();
        op.reports.push_back(std::move(report));
    }
    if (counts != nullptr) add_stats(counts->stats, session.stats());
    return op;
}

/// The PRISM path for the five line-2 paper models: translate, write, parse,
/// lint, explore through the expression VM, then check the CSL queries on
/// the raw chain.
OpResult modules_op(const RunConfig& config, e2e::Tracer* tracer, LayerCounts* counts) {
    engine::AnalysisSession session;
    std::vector<std::string> strategies = sweep::paper::strategy_names();
    permute(strategies, stream_seed(config.seed, 0));
    OpResult op;
    for (const auto& name : strategies) {
        ModuleOutput out;
        out.strategy = name;
        arcade::modules::ModuleSystem system;
        {
            e2e::Scope span(tracer, "modules.translate");
            system = core::to_reactive_modules(wt::line2(wt::strategy(name)));
        }
        std::string text;
        {
            e2e::Scope span(tracer, "prism.write");
            text = arcade::prism::write_prism(system);
        }
        arcade::prism::PrismParseInfo info;
        arcade::modules::ModuleSystem parsed;
        {
            e2e::Scope span(tracer, "prism.parse");
            parsed = arcade::prism::parse_prism(text, &info);
        }
        {
            e2e::Scope span(tracer, "lint");
            arcade::analysis::LintOptions options;
            options.unused_formulas = info.unused_formulas;
            const auto report = arcade::analysis::lint(parsed, options);
            out.lint_errors = report.errors;
            out.lint_warnings = report.warnings;
        }
        engine::AnalysisSession::ExploredPtr explored;
        {
            e2e::Scope span(tracer, "explore");
            arcade::modules::ExploreOptions options;
            options.threads = config.threads;
            options.symmetry = core::SymmetryPolicy::Off;
            explored = session.explore(parsed, options);
        }
        out.states = explored->chain.state_count();
        out.transitions = explored->chain.transition_count();
        arcade::logic::CheckerOptions options;
        options.reward_structures = explored->reward_structures;
        std::vector<std::string> queries = kQueries;
        if (name == "DED") queries.insert(queries.end(), kDedQueries.begin(), kDedQueries.end());
        for (const auto& query : queries) {
            e2e::Scope span(tracer, query_layer(query));
            const auto result = arcade::logic::check(explored->chain, query, options);
            if (!result.value) throw arcade::InvalidArgument("query without a value: " + query);
            out.queries.emplace_back(query, *result.value);
        }
        op.results += out.queries.size();
        if (counts != nullptr) {
            counts->prism_bytes += static_cast<double>(text.size());
            counts->explore_states += static_cast<double>(out.states);
            counts->csl_queries += static_cast<double>(out.queries.size());
            counts->chain_bytes += chain_bytes(explored->chain);
            consider_largest(*counts,
                             std::shared_ptr<const ctmc::Ctmc>(explored, &explored->chain));
        }
        op.modules.push_back(std::move(out));
    }
    return op;
}

OpResult run_op(const RunConfig& config, const std::vector<GridSpec>& grids,
                e2e::Tracer* tracer = nullptr, LayerCounts* counts = nullptr) {
    if (config.workload == "modules") return modules_op(config, tracer, counts);
    return sweep_op(config, grids, tracer, counts);
}

// ---------------------------------------------------------------------------
// Kernel probes (traced run): step counts are computed from Fox–Glynn right
// points at the uniformisation rate the solvers use (1.02 × max exit rate);
// bytes and flops are computed from array sizes, not measured.
// ---------------------------------------------------------------------------

struct KernelProbe {
    double steps = 0;
    double seconds = 0;
    double nnz = 0;
    double states = 0;
};

constexpr double kProbeWork = 1e8;  ///< stored entries plus rows visited per probe call

/// A time horizon whose Poisson mean gives about kProbeWork / (nnz + rows)
/// steps, clamped to [200, 50000].
double probe_time(double lambda, double nnz, double rows) {
    const double steps = std::clamp(std::round(kProbeWork / (nnz + rows)), 200.0, 50000.0);
    return steps / lambda;
}

template <typename F>
double median_seconds(e2e::Tracer& tracer, const char* name, F&& call) {
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
        tracer.begin(name);
        call();
        times.push_back(tracer.end());
    }
    std::sort(times.begin(), times.end());
    return times[1];
}

KernelProbe probe_left(const ctmc::Ctmc& chain, e2e::Tracer& tracer) {
    const double lambda = std::max(chain.max_exit_rate(), 1e-12) * 1.02;
    KernelProbe p;
    p.nnz = static_cast<double>(chain.transition_count());
    p.states = static_cast<double>(chain.state_count());
    const double t = probe_time(lambda, p.nnz, p.states);
    p.steps = static_cast<double>(arcade::numeric::fox_glynn(lambda * t, 1e-12).right);
    std::vector<double> sink;
    p.seconds = median_seconds(tracer, "probe.kernel_left", [&] {
        sink = ctmc::transient_distribution(chain, chain.initial_distribution(), t);
    });
    return p;
}

KernelProbe probe_right(const ctmc::Ctmc& chain, e2e::Tracer& tracer) {
    // Few total-failure states are made absorbing, so the transformed chain
    // keeps nearly all of the chain's transitions.
    const std::vector<bool> phi(chain.state_count(), true);
    const std::vector<bool> psi = chain.label("total_failure");
    const ctmc::Ctmc transformed = ctmc::until_transform(chain, phi, psi);
    KernelProbe p;
    p.nnz = static_cast<double>(transformed.transition_count());
    p.states = static_cast<double>(chain.state_count());
    if (transformed.max_exit_rate() == 0.0) return p;
    const double lambda = transformed.max_exit_rate() * 1.02;
    const double t = probe_time(lambda, p.nnz, p.states);
    p.steps = static_cast<double>(arcade::numeric::fox_glynn(lambda * t, 1e-12).right);
    std::vector<double> sink;
    p.seconds = median_seconds(tracer, "probe.kernel_right", [&] {
        sink = ctmc::bounded_until_all_states(chain, phi, psi, t);
    });
    return p;
}

// ---------------------------------------------------------------------------
// Context and output
// ---------------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
    if (max_leaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        std::string name(reinterpret_cast<const char*>(regs), sizeof regs);
        name = name.c_str();
        const auto first = name.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : name.substr(first);
    }
#endif
    return "unknown";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string context_json(unsigned threads) {
    std::ostringstream os;
    os << "{\"build_type\":" << json_string(E2E_BUILD_TYPE)
       << ",\"compiler\":" << json_string(E2E_COMPILER)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":" << json_string(cpu_model())
       << ",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
       << ",\"l3_bytes\":" << sysconf(_SC_LEVEL3_CACHE_SIZE) << ",\"threads\":" << threads
       << "}";
    return os.str();
}

double peak_rss_kib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss);
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Checked {
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/// Runs one operation and checks it; a throw or a wrong output counts as a
/// failed operation.
template <typename F>
std::optional<OpResult> checked_op(const std::vector<GridSpec>& grids, const Outputs& want,
                                   Checked& checked, F&& op_call) {
    ++checked.attempted;
    try {
        OpResult op = op_call();
        if (mismatches(digest(grids, op), want, true) != 0) {
            ++checked.failed;
            return std::nullopt;
        }
        return op;
    } catch (const std::exception& e) {
        std::cerr << "arcade_e2e: operation failed: " << e.what() << "\n";
        ++checked.failed;
        return std::nullopt;
    }
}

int measure_mode(const RunConfig& config, double seconds, const std::string& refs,
                 Clock::time_point process_start) {
    const auto grids = sweep_grids(config.workload);
    const Outputs want = read_reference(reference_path(refs, config.workload));
    Checked checked;
    double setup = 0;
    const auto first = checked_op(grids, want, checked, [&] {
        OpResult op = run_op(config, grids);
        setup = seconds_since(process_start);
        return op;
    });
    const bool self_test = first && check_fires(grids, *first, want);
    // What a one-shot process pays; later operations re-use or fragment the
    // freed memory, by an amount that depends on how many fit in the window.
    const double peak_rss = peak_rss_kib();

    std::vector<double> samples;
    double results = 0;
    const std::size_t attempted_before = checked.attempted;
    const auto loop_start = Clock::now();
    while (seconds > 0 &&
           (checked.attempted == attempted_before || seconds_since(loop_start) < seconds)) {
        // An operation with wrong outputs still has a latency; one that
        // threw has none.  Only correct results count as completed.
        double dt = -1;
        const auto op = checked_op(grids, want, checked, [&] {
            const auto t0 = Clock::now();
            OpResult result = run_op(config, grids);
            dt = seconds_since(t0);
            return result;
        });
        if (dt >= 0) samples.push_back(dt);
        if (op) results += static_cast<double>(op->results);
    }
    std::ostringstream os;
    os << "{\"mode\":\"measure\",\"workload\":" << json_string(config.workload)
       << ",\"seed\":" << config.seed << ",\"setup_s\":" << number(setup)
       << ",\"results\":" << number(results) << ",\"attempted\":" << checked.attempted
       << ",\"failed\":" << checked.failed << ",\"self_test\":" << (self_test ? "true" : "false")
       << ",\"peak_rss_kib\":" << number(peak_rss)
       << ",\"context\":" << context_json(config.threads) << ",\"samples\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) os << (i ? "," : "") << number(samples[i]);
    os << "]}";
    std::cout << os.str() << std::endl;
    return 0;
}

int trace_mode(const RunConfig& config, double seconds, const std::string& refs,
               const std::string& trace_out) {
    const auto grids = sweep_grids(config.workload);
    const Outputs want = read_reference(reference_path(refs, config.workload));
    Checked checked;

    // A warm-up operation, then pairs of one untraced operation through the
    // library's entry points and one traced replay, until `seconds` pass.
    const auto warm = checked_op(grids, want, checked, [&] { return run_op(config, grids); });
    const bool self_test = warm && check_fires(grids, *warm, want);

    e2e::Tracer tracer;
    LayerCounts counts;
    std::vector<double> untraced_times;
    double traced_ops = 0;
    double fg_hits = 0;
    double fg_misses = 0;
    const auto loop_start = Clock::now();
    while (traced_ops == 0 || seconds_since(loop_start) < seconds) {
        (void)checked_op(grids, want, checked, [&] {
            const auto u0 = Clock::now();
            OpResult op = run_op(config, grids);
            untraced_times.push_back(seconds_since(u0));
            return op;
        });

        tracer.set_op(static_cast<std::int64_t>(traced_ops));
        const auto fg_before = arcade::numeric::fox_glynn_cache_stats();
        // The check runs after the "op" span closes, outside the traced time.
        (void)checked_op(grids, want, checked, [&]() -> OpResult {
            e2e::Scope span(&tracer, "op");
            return run_op(config, grids, &tracer, &counts);
        });
        const auto fg_after = arcade::numeric::fox_glynn_cache_stats();
        fg_hits += static_cast<double>(fg_after.hits - fg_before.hits);
        fg_misses += static_cast<double>(fg_after.misses - fg_before.misses);
        ++traced_ops;
        if (checked.failed > 0) break;
    }
    std::sort(untraced_times.begin(), untraced_times.end());
    const double untraced = untraced_times.empty() ? 0.0 : untraced_times[untraced_times.size() / 2];
    tracer.set_op(-1);

    KernelProbe left, right;
    if (counts.largest) {
        left = probe_left(*counts.largest, tracer);
        right = probe_right(*counts.largest, tracer);
    }
    {
        std::ofstream os(trace_out);
        tracer.write_chrome_json(os);
        if (!os) throw arcade::InvalidArgument("cannot write trace " + trace_out);
    }

    // Self time per span name, over the traced operations only.
    std::map<std::string, double> self;
    double op_wall = 0;
    for (const auto& span : tracer.spans()) {
        if (span.op < 0) continue;
        const double d = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        if (span.name == "op") op_wall += d;
        self[span.name] += static_cast<double>(span.end_ns - span.start_ns - span.children_ns) *
                           1e-9;
    }
    const double n = traced_ops;
    const auto busy = [&](const char* name) { return self.count(name) ? self[name] / n : 0.0; };
    const double lint_probe = busy("probe.lint");

    std::vector<std::pair<std::string, double>> m;
    m.emplace_back("sweep.expand_s", busy("sweep.expand"));
    m.emplace_back("sweep.export_s", busy("sweep.export"));
    m.emplace_back("sweep.export_bytes", counts.export_bytes / n);
    m.emplace_back("compile.calls", counts.compile_calls / n);
    m.emplace_back("compile.busy_s", busy("compile") - lint_probe);
    m.emplace_back("compile.states", counts.compile_states / n);
    m.emplace_back("compile.transitions", counts.compile_transitions / n);
    m.emplace_back("compile.states_per_s",
                   ratio(counts.compile_states / n, busy("compile") - lint_probe));
    m.emplace_back("lint.busy_s", busy("lint") + lint_probe);
    const auto& st = counts.stats;
    m.emplace_back("session.compile_hit_ratio",
                   ratio(static_cast<double>(st.compile_hits),
                         static_cast<double>(st.compile_hits + st.compile_misses)));
    m.emplace_back("session.steady_hit_ratio",
                   ratio(static_cast<double>(st.steady_state_hits),
                         static_cast<double>(st.steady_state_hits + st.steady_state_misses)));
    m.emplace_back("symmetry.states_full", static_cast<double>(st.symmetry_states_in) / n);
    m.emplace_back("symmetry.states_explored", static_cast<double>(st.symmetry_states_out) / n);
    m.emplace_back("lump.busy_s", busy("lump"));
    m.emplace_back("lump.states_in", static_cast<double>(st.lump_states_in) / n);
    m.emplace_back("lump.states_out", static_cast<double>(st.lump_states_out) / n);
    m.emplace_back("steady.calls", counts.steady_calls / n);
    m.emplace_back("steady.busy_s", busy("steady"));
    m.emplace_back("transient.calls", counts.transient_calls / n);
    m.emplace_back("transient.grid_points", counts.transient_grid_points / n);
    m.emplace_back("transient.reliability_s", busy("transient.reliability"));
    m.emplace_back("transient.survivability_s", busy("transient.survivability"));
    m.emplace_back("transient.instantaneous_cost_s", busy("transient.instantaneous_cost"));
    m.emplace_back("transient.accumulated_cost_s", busy("transient.accumulated_cost"));
    m.emplace_back("foxglynn.hits", fg_hits / n);
    m.emplace_back("foxglynn.misses", fg_misses / n);

    // Left product bytes: CSR arrays plus one input and one output vector.
    const double left_bytes = left.nnz * (sizeof(double) + sizeof(std::size_t)) +
                              (left.states + 1) * sizeof(std::size_t) +
                              2 * left.states * sizeof(double);
    // Per stored entry: divide by lambda, multiply, add; per row: the moved
    // mass and the diagonal term.
    const double left_flops = 3 * left.nnz + 2 * left.states;
    m.emplace_back("kernel.steps", left.steps + right.steps);
    m.emplace_back("kernel.left_ns_per_nnz", ratio(left.seconds * 1e9, left.steps * left.nnz));
    m.emplace_back("kernel.right_ns_per_nnz",
                   ratio(right.seconds * 1e9, right.steps * right.nnz));
    m.emplace_back("kernel.bytes_per_step", left_bytes);
    m.emplace_back("kernel.gbytes_per_s", ratio(left_bytes * left.steps, left.seconds * 1e9));
    m.emplace_back("kernel.flops_per_byte", ratio(left_flops, left_bytes));
    // The uniformisation accumulator is the third vector a step touches.
    m.emplace_back("kernel.working_set_bytes", left_bytes + left.states * sizeof(double));

    m.emplace_back("modules.translate_s", busy("modules.translate"));
    m.emplace_back("prism.write_s", busy("prism.write"));
    m.emplace_back("prism.parse_s", busy("prism.parse"));
    m.emplace_back("prism.bytes", counts.prism_bytes / n);
    m.emplace_back("explore.busy_s", busy("explore"));
    m.emplace_back("explore.states_per_s", ratio(counts.explore_states / n, busy("explore")));
    m.emplace_back("csl.queries", counts.csl_queries / n);
    m.emplace_back("csl.steady_s", busy("csl.steady"));
    m.emplace_back("csl.until_s", busy("csl.until"));
    m.emplace_back("csl.reward_transient_s", busy("csl.reward_transient"));
    m.emplace_back("memory.chain_bytes", counts.chain_bytes / n);
    m.emplace_back("bench.probe_s", lint_probe);

    double attributed = 0;
    for (const auto& [name, seconds_self] : self) {
        if (name != "op") attributed += seconds_self / n;
    }
    m.emplace_back("trace.op_wall_s", op_wall / n);
    m.emplace_back("trace.unattributed_s", op_wall / n - attributed);
    m.emplace_back("trace.untraced_single_thread_s", untraced);
    m.emplace_back("trace.overhead_ratio", ratio(op_wall / n - lint_probe, untraced));
    m.emplace_back("trace.ops", n);

    std::ostringstream os;
    os << "{\"mode\":\"trace\",\"workload\":" << json_string(config.workload)
       << ",\"seed\":" << config.seed << ",\"attempted\":" << checked.attempted
       << ",\"failed\":" << checked.failed << ",\"self_test\":" << (self_test ? "true" : "false")
       << ",\"context\":" << context_json(config.threads) << ",\"metrics\":{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        os << (i ? "," : "") << json_string(m[i].first) << ":" << number(m[i].second);
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

int record_mode(const RunConfig& config, const std::string& refs) {
    const auto grids = sweep_grids(config.workload);
    const OpResult op = run_op(config, grids);
    const Outputs outputs = digest(grids, op);
    write_reference(reference_path(refs, config.workload), outputs);
    std::cout << "{\"mode\":\"record\",\"workload\":" << json_string(config.workload)
              << ",\"outputs\":" << outputs.size() << "}" << std::endl;
    return 0;
}

std::string arg_value(int argc, char** argv, const std::string& flag, const std::string& dflt) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag) return argv[i + 1];
    }
    return dflt;
}

}  // namespace

int main(int argc, char** argv) {
    const auto process_start = Clock::now();
    if (std::string(E2E_BUILD_TYPE) != "Release") {
        std::cerr << "arcade_e2e: refusing to report from a " << E2E_BUILD_TYPE
                  << " build (Release required)\n";
        return 2;
    }
    if (argc < 2) {
        std::cerr << "usage: arcade_e2e measure|trace|record [--workload W] [--seed N]"
                     " [--seconds S] [--threads T] [--refs DIR] [--trace-out FILE]\n";
        return 2;
    }
    try {
        const std::string mode = argv[1];
        RunConfig config;
        config.workload = arg_value(argc, argv, "--workload", "paper");
        config.seed = std::stoull(arg_value(argc, argv, "--seed", "1"));
        config.threads = static_cast<unsigned>(std::stoul(arg_value(argc, argv, "--threads", "1")));
        const double seconds = std::stod(arg_value(argc, argv, "--seconds", "1"));
        const std::string refs = arg_value(argc, argv, "--refs", "e2ebench/references");
        if (mode == "measure") return measure_mode(config, seconds, refs, process_start);
        if (mode == "trace") {
            config.threads = 1;
            return trace_mode(config, seconds, refs,
                              arg_value(argc, argv, "--trace-out", "e2e-trace.json"));
        }
        if (mode == "record") return record_mode(config, refs);
        std::cerr << "arcade_e2e: unknown mode '" << mode << "'\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "arcade_e2e: " << e.what() << "\n";
        return 1;
    }
}
