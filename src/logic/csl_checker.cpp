// CSL/CSRL model-checking engine (see csl.hpp for the supported grammar,
// csl_compiled.hpp for the reduction-aware path over compiled models).
//
// One recursive evaluator serves both entry points: the raw overloads run
// it on a bare chain with the caller's reward registry; the compiled
// overloads run it on the model's strong-bisimulation quotient under
// ReductionPolicy::Auto (full chain otherwise, or when the formula contains
// Next), resolve rewards from the model, reuse the session's cached
// steady-state solve for top-level S/R[S] queries, and lift the per-state
// results back to the full state space.
#include <algorithm>
#include <cmath>

#include "ctmc/bounded_until.hpp"
#include "ctmc/steady_state.hpp"
#include "linalg/vector_ops.hpp"
#include "logic/csl.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"

namespace arcade::logic {

namespace {

/// Everything one recursive evaluation reads: the chain to analyse (a full
/// chain or a quotient chain — the recursion cannot tell), the resolved
/// reward registry (by reference: structures are never copied or re-looked-
/// up per recursion level) and the numeric tolerance.  When the evaluation
/// runs on a quotient chain, `quotient`/`projected` are set and reward
/// structures project lazily at use site — only a formula that actually
/// reads a structure pays (or fails) its projection.
struct Context {
    const ctmc::Ctmc& chain;
    const RewardRegistry& rewards;  ///< full-chain sized structures
    double epsilon = 1e-12;
    const ctmc::QuotientCtmc* quotient = nullptr;
    RewardRegistry* projected = nullptr;  ///< per-evaluation projection cache
};

/// Evaluation result inside the recursion: either a satisfaction set or a
/// per-state value vector (for quantitative sub-queries).
struct Evaluated {
    std::vector<bool> sat;
    std::vector<double> values;
    bool quantitative = false;
};

Evaluated eval(const Context& ctx, const StateFormula& f);

std::vector<bool> eval_boolean(const Context& ctx, const StateFormula& f) {
    Evaluated e = eval(ctx, f);
    if (e.quantitative) {
        throw ModelError("expected a boolean sub-formula but found a =? query");
    }
    return e.sat;
}

bool compare(Comparison cmp, double value, double threshold) {
    switch (cmp) {
        case Comparison::Lt: return value < threshold;
        case Comparison::Le: return value <= threshold;
        case Comparison::Gt: return value > threshold;
        case Comparison::Ge: return value >= threshold;
        case Comparison::Query: break;
    }
    throw ModelError("query bound used where a comparison is required");
}

const rewards::RewardStructure& find_reward(const Context& ctx, const std::string& name) {
    const RewardRegistry& all = ctx.rewards;
    if (all.empty()) throw ModelError("no reward structures registered with the checker");
    RewardRegistry::const_iterator it;
    if (name.empty()) {
        if (all.size() != 1) {
            throw ModelError("multiple reward structures: name one explicitly, R{\"name\"}");
        }
        it = all.begin();
    } else {
        it = all.find(name);
        if (it == all.end()) throw ModelError("unknown reward structure '" + name + "'");
    }
    if (ctx.quotient == nullptr) return it->second;
    // Quotient substrate: project on first use and cache per evaluation.
    const auto cached = ctx.projected->find(it->first);
    if (cached != ctx.projected->end()) return cached->second;
    return ctx.projected
        ->emplace(it->first,
                  rewards::RewardStructure(
                      it->second.name(),
                      ctx.quotient->project_values(it->second.state_rates())))
        .first->second;
}

/// Per-state probabilities for a path formula.
std::vector<double> path_probabilities(const Context& ctx, const PathFormula& path) {
    const std::size_t n = ctx.chain.state_count();
    if (const auto* next = std::get_if<NextPath>(&path)) {
        const std::vector<bool> target = eval_boolean(ctx, *next->operand);
        // P(X f) from state s = sum over f-successors rate / exit (embedded jump).
        std::vector<double> out(n, 0.0);
        for (std::size_t s = 0; s < n; ++s) {
            const double exit = ctx.chain.exit_rate(s);
            if (exit <= 0.0) continue;  // absorbing: no next state
            const auto cols = ctx.chain.rates().row_columns(s);
            const auto vals = ctx.chain.rates().row_values(s);
            double p = 0.0;
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k] != s && target[cols[k]]) p += vals[k];
            }
            out[s] = p / exit;
        }
        return out;
    }
    const auto& until = std::get<UntilPath>(path);
    const std::vector<bool> phi = eval_boolean(ctx, *until.lhs);
    const std::vector<bool> psi = eval_boolean(ctx, *until.rhs);
    if (until.time_bound) {
        ctmc::TransientOptions topt;
        topt.epsilon = ctx.epsilon;
        return ctmc::bounded_until_all_states(ctx.chain, phi, psi, *until.time_bound, topt);
    }
    return ctmc::reachability_probability(ctx.chain, phi, psi);
}

Evaluated eval(const Context& ctx, const StateFormula& f) {
    const std::size_t n = ctx.chain.state_count();
    Evaluated out;

    if (const auto* lit = std::get_if<BoolLiteral>(&f.node())) {
        out.sat.assign(n, lit->value);
        return out;
    }
    if (const auto* label = std::get_if<Label>(&f.node())) {
        out.sat = ctx.chain.label(label->name);
        return out;
    }
    if (const auto* neg = std::get_if<Negation>(&f.node())) {
        Evaluated inner = eval(ctx, *neg->operand);
        if (inner.quantitative) {
            // numeric complement: 1 - value (used for the G duality)
            out.quantitative = true;
            out.values.resize(n);
            for (std::size_t s = 0; s < n; ++s) out.values[s] = 1.0 - inner.values[s];
            return out;
        }
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = !inner.sat[s];
        return out;
    }
    if (const auto* con = std::get_if<Conjunction>(&f.node())) {
        const auto a = eval_boolean(ctx, *con->lhs);
        const auto b = eval_boolean(ctx, *con->rhs);
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = a[s] && b[s];
        return out;
    }
    if (const auto* dis = std::get_if<Disjunction>(&f.node())) {
        const auto a = eval_boolean(ctx, *dis->lhs);
        const auto b = eval_boolean(ctx, *dis->rhs);
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) out.sat[s] = a[s] || b[s];
        return out;
    }
    if (const auto* prob = std::get_if<Probabilistic>(&f.node())) {
        const std::vector<double> p = path_probabilities(ctx, prob->path);
        if (prob->bound.comparison == Comparison::Query) {
            out.quantitative = true;
            out.values = p;
            return out;
        }
        out.sat.resize(n);
        for (std::size_t s = 0; s < n; ++s) {
            out.sat[s] = compare(prob->bound.comparison, p[s], prob->bound.threshold);
        }
        return out;
    }
    if (const auto* ss = std::get_if<SteadyState>(&f.node())) {
        const std::vector<bool> target = eval_boolean(ctx, *ss->operand);
        // S applies to the chain as a whole (from the initial distribution).
        const double value = ctmc::steady_state_probability(ctx.chain, target);
        if (ss->bound.comparison == Comparison::Query) {
            out.quantitative = true;
            out.values.assign(n, value);
            return out;
        }
        out.sat.assign(n, compare(ss->bound.comparison, value, ss->bound.threshold));
        return out;
    }
    const auto& reward = std::get<Reward>(f.node());
    const rewards::RewardStructure& structure = find_reward(ctx, reward.structure);
    ctmc::TransientOptions topt;
    topt.epsilon = ctx.epsilon;

    std::vector<double> values;
    if (const auto* inst = std::get_if<InstantaneousReward>(&reward.property)) {
        values = rewards::instantaneous_reward_from_each_state(ctx.chain, structure,
                                                               inst->time, topt);
    } else if (const auto* cum = std::get_if<CumulativeReward>(&reward.property)) {
        values = rewards::accumulated_reward_from_each_state(ctx.chain, structure,
                                                             cum->time, topt);
    } else {
        values.assign(n, rewards::steady_state_reward(ctx.chain, structure));
    }
    if (reward.bound.comparison == Comparison::Query) {
        out.quantitative = true;
        out.values = std::move(values);
        return out;
    }
    out.sat.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
        out.sat[s] = compare(reward.bound.comparison, values[s], reward.bound.threshold);
    }
    return out;
}

CheckResult finish(const Evaluated& e, std::span<const double> initial) {
    CheckResult result;
    if (e.quantitative) {
        result.values = e.values;
        result.value = linalg::dot(initial, e.values);
    } else {
        result.satisfaction = e.sat;
        double mass = 0.0;
        for (std::size_t s = 0; s < e.sat.size(); ++s) {
            if (e.sat[s]) mass += initial[s];
        }
        result.holds = mass > 1.0 - 1e-12;
    }
    return result;
}

// ---------------------------------------------------------------------------
// Compiled-model path (csl_compiled.hpp)
// ---------------------------------------------------------------------------

/// What the compiled-path evaluation runs on: the model's quotient under
/// ReductionPolicy::Auto, the full chain otherwise.  The reward registry
/// always holds full-chain structures — projection happens lazily inside
/// find_reward (into `projected`), so an unreferenced caller structure that
/// is not block-constant never aborts an unrelated check.
struct Substrate {
    std::shared_ptr<const ctmc::QuotientCtmc> quotient;  ///< null = full chain
    const ctmc::Ctmc* chain = nullptr;
    RewardRegistry rewards;    ///< model's cost reward + caller structures
    RewardRegistry projected;  ///< lazily projected copies (quotient runs)

    [[nodiscard]] Context context(double epsilon) {
        return Context{*chain, rewards, epsilon, quotient.get(), &projected};
    }
};

Substrate make_substrate(engine::AnalysisSession& session,
                         const engine::AnalysisSession::CompiledPtr& model,
                         const StateFormula& formula, const CheckerOptions& options) {
    Substrate sub;
    // Next reads jump probabilities, which intra-block rates (unconstrained
    // by ordinary lumpability) can change between bisimilar states — fall
    // back to the full chain for such formulas.
    const bool reduce = model->reduction() == core::ReductionPolicy::Auto &&
                        !contains_next(formula);
    if (reduce) {
        sub.quotient = session.quotient(model);
        sub.chain = &sub.quotient->chain();
    } else {
        sub.chain = &model->chain();
    }
    sub.rewards.emplace(model->cost_reward().name(), model->cost_reward());
    for (const auto& [name, structure] : options.reward_structures) {
        sub.rewards.insert_or_assign(name, structure);
    }
    return sub;
}

/// Shapes a chain-global scalar (steady-state query) into a CheckResult the
/// way the recursive evaluator would: uniform per-state vectors.
CheckResult global_scalar_result(double value, const Bound& bound, std::size_t n) {
    CheckResult result;
    if (bound.comparison == Comparison::Query) {
        result.value = value;
        result.values.assign(n, value);
    } else {
        const bool ok = compare(bound.comparison, value, bound.threshold);
        result.holds = ok;
        result.satisfaction.assign(n, ok);
    }
    return result;
}

}  // namespace

CheckResult check(const ctmc::Ctmc& chain, const StateFormula& formula,
                  const CheckerOptions& options) {
    validate(options);
    validate(formula);
    const Context ctx{chain, options.reward_structures, options.epsilon};
    return finish(eval(ctx, formula), chain.initial_distribution());
}

CheckResult check(const ctmc::Ctmc& chain, const std::string& formula,
                  const CheckerOptions& options) {
    return check(chain, *parse_csl(formula), options);
}

CheckResult check(engine::AnalysisSession& session,
                  const engine::AnalysisSession::CompiledPtr& model,
                  const StateFormula& formula, const CheckerOptions& options) {
    ARCADE_ASSERT(model != nullptr, "CSL check of a null model");
    validate(options);
    validate(formula);
    const std::size_t n = model->state_count();

    // Top-level steady-state queries reuse the session's cached solve — the
    // exact distribution (and summation order) the availability and
    // long-run-cost measures use, so S=?["operational"] IS the availability.
    if (const auto* ss = std::get_if<SteadyState>(&formula.node())) {
        Substrate sub = make_substrate(session, model, *ss->operand, options);
        const Context ctx = sub.context(options.epsilon);
        std::vector<bool> target = eval_boolean(ctx, *ss->operand);
        if (sub.quotient != nullptr) target = sub.quotient->lift_mask(target);
        const auto pi = session.steady_state(model);
        double value = 0.0;
        for (std::size_t s = 0; s < n; ++s) {
            if (target[s]) value += (*pi)[s];
        }
        return global_scalar_result(value, ss->bound, n);
    }
    if (const auto* reward = std::get_if<Reward>(&formula.node())) {
        if (std::holds_alternative<SteadyStateReward>(reward->property)) {
            // Full-chain registry: the dot against the cached (lifted)
            // distribution is the steady-state-cost measure verbatim.
            RewardRegistry registry;
            registry.emplace(model->cost_reward().name(), model->cost_reward());
            for (const auto& [name, structure] : options.reward_structures) {
                registry.insert_or_assign(name, structure);
            }
            const Context ctx{model->chain(), registry, options.epsilon};
            const auto& structure = find_reward(ctx, reward->structure);
            const auto pi = session.steady_state(model);
            const double value = linalg::dot(*pi, structure.state_rates());
            return global_scalar_result(value, reward->bound, n);
        }
    }

    Substrate sub = make_substrate(session, model, formula, options);
    const Context ctx = sub.context(options.epsilon);
    Evaluated e = eval(ctx, formula);
    if (sub.quotient != nullptr) {
        // Per-state CSL functionals are block-constant on bisimilar states:
        // the lift copies each block's value/bit to its members.
        if (e.quantitative) {
            e.values = sub.quotient->lift_values(e.values);
        } else {
            e.sat = sub.quotient->lift_mask(e.sat);
        }
    }
    return finish(e, model->chain().initial_distribution());
}

CheckResult check(engine::AnalysisSession& session,
                  const engine::AnalysisSession::CompiledPtr& model,
                  const std::string& formula, const CheckerOptions& options) {
    return check(session, model, *parse_csl(formula), options);
}

std::vector<double> check_series(engine::AnalysisSession& session,
                                 const engine::AnalysisSession::CompiledPtr& model,
                                 const StateFormula& formula,
                                 std::span<const double> times,
                                 std::span<const double> initial,
                                 const CheckerOptions& options) {
    ARCADE_ASSERT(model != nullptr, "CSL series check of a null model");
    validate(options);
    validate(formula);
    if (initial.size() != model->state_count()) {
        throw InvalidArgument("check_series: initial distribution size mismatch");
    }

    // A leading Negation is the parser's G<=t desugaring: evaluate the dual
    // query and complement the values (1 - p), like the reliability measure.
    const StateFormula* f = &formula;
    bool complement = false;
    if (const auto* neg = std::get_if<Negation>(&formula.node())) {
        f = neg->operand.get();
        complement = true;
    }

    Substrate sub = make_substrate(session, model, *f, options);
    const Context ctx = sub.context(options.epsilon);
    const std::vector<double> init =
        sub.quotient != nullptr ? sub.quotient->project(initial)
                                : std::vector<double>(initial.begin(), initial.end());
    ctmc::TransientOptions topt;
    topt.epsilon = options.epsilon;
    topt.workspace = &session.workspace();

    std::vector<double> values;
    if (const auto* prob = std::get_if<Probabilistic>(&f->node())) {
        const auto* until = std::get_if<UntilPath>(&prob->path);
        if (prob->bound.comparison != Comparison::Query || until == nullptr ||
            !until->time_bound) {
            throw InvalidArgument(
                "check_series: the top level must be a time-bounded quantitative query "
                "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
        }
        // The formula's own bound is nominal; each grid point replaces it,
        // all advanced by one shared evolver — the survivability/reliability
        // measure kernels verbatim.
        const std::vector<bool> phi = eval_boolean(ctx, *until->lhs);
        const std::vector<bool> psi = eval_boolean(ctx, *until->rhs);
        values = ctmc::bounded_until_series(*sub.chain, init, phi, psi, times, topt);
    } else if (const auto* reward = std::get_if<Reward>(&f->node())) {
        if (reward->bound.comparison != Comparison::Query ||
            std::holds_alternative<SteadyStateReward>(reward->property)) {
            throw InvalidArgument(
                "check_series: the top level must be a time-bounded quantitative query "
                "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
        }
        const auto& structure = find_reward(ctx, reward->structure);
        values = std::holds_alternative<InstantaneousReward>(reward->property)
                     ? rewards::instantaneous_reward_series(*sub.chain, init, structure,
                                                            times, topt)
                     : rewards::accumulated_reward_series(*sub.chain, init, structure,
                                                          times, topt);
    } else {
        throw InvalidArgument(
            "check_series: the top level must be a time-bounded quantitative query "
            "(P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], optionally negated)");
    }
    if (complement) {
        for (double& v : values) v = 1.0 - v;
    }
    return values;
}

}  // namespace arcade::logic
