#include "circuit/dc.hpp"

#include <limits>
#include <sstream>

#include "circuit/devices/sources.hpp"
#include "circuit/mna.hpp"

namespace rfabm::circuit {

std::string unknown_name(const Circuit& circuit, std::size_t index) {
    const std::size_t num_node_unknowns = circuit.num_nodes() - 1;
    if (index < num_node_unknowns) {
        return "node '" + circuit.node_name(static_cast<NodeId>(index + 1)) + "'";
    }
    return "branch " + std::to_string(index - num_node_unknowns);
}

namespace {

/// Tracks the shared iteration budget across all attempts of one solve.
class IterationBudget {
  public:
    explicit IterationBudget(int max_total)
        : remaining_(max_total > 0 ? max_total : std::numeric_limits<int>::max()) {}

    /// Cap @p opts to the remaining budget; false when the budget is spent.
    bool apply(NewtonOptions& opts) const {
        if (remaining_ <= 0) return false;
        opts.max_iterations = std::min(opts.max_iterations, remaining_);
        return true;
    }

    void charge(const NewtonOutcome& out) {
        remaining_ -= out.iterations;
        total_ += out.iterations;
    }

    bool exhausted() const { return remaining_ <= 0; }
    int total() const { return total_; }

  private:
    int remaining_;
    int total_ = 0;
};

}  // namespace

std::string ConvergenceDiagnostics::to_string() const {
    std::ostringstream os;
    if (non_finite) {
        os << "solve produced a non-finite (NaN/Inf) value";
        if (!worst_unknown.empty()) os << " at " << worst_unknown;
        os << " after " << total_iterations << " Newton iterations";
        return os.str();
    }
    os << "DC operating point did not converge after " << total_iterations
       << " Newton iterations";
    if (!worst_unknown.empty()) {
        os << " (worst |delta| = " << worst_delta << " at " << worst_unknown << ")";
    }
    if (singular) os << "; matrix became singular";
    if (budget_exhausted) os << "; total-iteration budget exhausted";
    os << "; gmin stepping " << (gmin_stepping_attempted ? "attempted" : "not attempted")
       << ", source stepping " << (source_stepping_attempted ? "attempted" : "not attempted");
    return os.str();
}

DcOutcome try_solve_dc(Circuit& circuit, const DcOptions& options, const Solution* initial) {
    circuit.finalize();
    DcOutcome outcome;
    DcResult& result = outcome.result;
    result.solution = initial != nullptr ? *initial
                                         : Solution(circuit.num_nodes(), circuit.num_branches());
    if (result.solution.size() != circuit.num_nodes() - 1 + circuit.num_branches()) {
        result.solution = Solution(circuit.num_nodes(), circuit.num_branches());
    }

    MnaSystem& scratch = circuit.dc_system();
    StampContext ctx;
    ctx.mode = AnalysisMode::kDc;
    ctx.gmin = options.gmin;

    IterationBudget budget(options.newton.max_total_iterations);
    ConvergenceDiagnostics& diag = outcome.diagnostics;
    auto record_attempt = [&](const NewtonOutcome& out) {
        budget.charge(out);
        diag.total_iterations = budget.total();
        diag.last_attempt_iterations = out.iterations;
        diag.worst_delta = out.worst_delta;
        diag.worst_unknown = unknown_name(circuit, out.worst_unknown);
        diag.singular = diag.singular || out.singular;
        diag.non_finite = diag.non_finite || out.non_finite;
        diag.budget_exhausted = budget.exhausted();
    };

    // 1. Plain Newton.
    {
        NewtonOptions opts = options.newton;
        if (budget.apply(opts)) {
            Solution x = result.solution;
            const NewtonOutcome out = newton_iterate(circuit, ctx, x, opts, scratch);
            record_attempt(out);
            if (out.converged) {
                result.solution = std::move(x);
                result.iterations = out.iterations;
                outcome.ok = true;
                return outcome;
            }
            // NaN/Inf is arithmetic poison, not an iteration problem: no
            // amount of gmin or source stepping can fix it, so fail fast
            // with the located diagnostics instead of burning the budget.
            if (out.non_finite) return outcome;
        }
    }

    // 2. Gmin stepping: start with a heavily damped matrix and relax.
    if (options.allow_gmin_stepping && !budget.exhausted()) {
        diag.gmin_stepping_attempted = true;
        Solution x(circuit.num_nodes(), circuit.num_branches());
        bool ok = true;
        NewtonOptions step_opts = options.newton;
        for (double g = 1e-2; g >= options.gmin * 0.99; g *= 0.1) {
            step_opts.extra_diag_gmin = g > options.gmin ? g : 0.0;
            NewtonOptions opts = step_opts;
            if (!budget.apply(opts)) {
                ok = false;
                break;
            }
            const NewtonOutcome out = newton_iterate(circuit, ctx, x, opts, scratch);
            record_attempt(out);
            if (out.non_finite) return outcome;
            if (!out.converged) {
                ok = false;
                break;
            }
        }
        if (ok) {
            // Final polish without extra gmin.
            step_opts.extra_diag_gmin = 0.0;
            NewtonOptions opts = step_opts;
            if (budget.apply(opts)) {
                const NewtonOutcome out = newton_iterate(circuit, ctx, x, opts, scratch);
                record_attempt(out);
                if (out.converged) {
                    result.solution = std::move(x);
                    result.iterations = out.iterations;
                    result.used_gmin_stepping = true;
                    outcome.ok = true;
                    return outcome;
                }
                if (out.non_finite) return outcome;
            }
        }
    }

    // 3. Source stepping: homotopy from a dead circuit to full drive.
    if (options.allow_source_stepping && !budget.exhausted()) {
        diag.source_stepping_attempted = true;
        Solution x(circuit.num_nodes(), circuit.num_branches());
        bool ok = true;
        for (double scale : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
            ctx.source_scale = scale;
            NewtonOptions opts = options.newton;
            if (!budget.apply(opts)) {
                ok = false;
                break;
            }
            const NewtonOutcome out = newton_iterate(circuit, ctx, x, opts, scratch);
            record_attempt(out);
            if (out.non_finite) return outcome;
            if (!out.converged) {
                ok = false;
                break;
            }
        }
        if (ok) {
            result.solution = std::move(x);
            result.used_source_stepping = true;
            outcome.ok = true;
            return outcome;
        }
    }

    return outcome;
}

DcResult solve_dc(Circuit& circuit, const DcOptions& options, const Solution* initial) {
    DcOutcome outcome = try_solve_dc(circuit, options, initial);
    if (!outcome.ok) throw ConvergenceError(outcome.diagnostics);
    return std::move(outcome.result);
}

std::vector<double> dc_sweep(Circuit& circuit, VSource& source, const std::vector<double>& levels,
                             NodeId probe_p, NodeId probe_n, const DcOptions& options) {
    std::vector<double> out;
    out.reserve(levels.size());
    Solution warm;
    bool have_warm = false;
    for (double level : levels) {
        source.set_dc(level);
        const DcResult r = solve_dc(circuit, options, have_warm ? &warm : nullptr);
        warm = r.solution;
        have_warm = true;
        out.push_back(warm.v(probe_p) - warm.v(probe_n));
    }
    return out;
}

}  // namespace rfabm::circuit
