#include "circuit/newton.hpp"

#include <cmath>

#include "circuit/matrix.hpp"

namespace rfabm::circuit {

namespace {

/// Convergence test that also records the worst offender: the unknown whose
/// update most exceeds (relatively) its tolerance, for failure diagnostics.
bool check_converged(const Solution& prev, const std::vector<double>& next,
                     std::size_t num_nodes, const NewtonOptions& opt, NewtonOutcome* outcome) {
    const auto& old_vals = prev.raw();
    bool converged = true;
    double worst_ratio = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) {
        const double delta = std::fabs(next[i] - old_vals[i]);
        const double scale = std::max(std::fabs(next[i]), std::fabs(old_vals[i]));
        const double abs_tol = i < num_nodes - 1 ? opt.vntol : opt.abstol;
        const double tol = opt.reltol * scale + abs_tol;
        if (delta > tol) converged = false;
        const double ratio = delta / tol;
        if (ratio > worst_ratio) {
            worst_ratio = ratio;
            outcome->worst_delta = delta;
            outcome->worst_unknown = i;
        }
    }
    return converged;
}

}  // namespace

void stamp_devices(Circuit& circuit, MnaSystem& sys, const StampContext& ctx) {
    for (const auto& dev : circuit.devices()) {
        sys.mark_nonlinear(dev->stamp_role() == StampRole::kPerIteration);
        dev->stamp(sys, ctx);
    }
    sys.mark_nonlinear(false);
}

void assemble(Circuit& circuit, MnaSystem& sys, const StampContext& ctx, double extra_diag_gmin,
              bool step_start) {
    circuit.finalize();
    MnaSystem::PlanKey key;
    key.circuit = &circuit;
    key.stamp_version = circuit.stamp_version();
    key.nodes = circuit.num_nodes();
    key.branches = circuit.num_branches();
    key.mode = static_cast<int>(ctx.mode);
    key.method = static_cast<int>(ctx.method);
    key.dt = ctx.dt;
    key.gmin = ctx.gmin;
    key.source_scale = ctx.source_scale;
    key.extra_diag_gmin = extra_diag_gmin;
    const auto& devices = circuit.devices();
    sys.assemble(
        key, devices.size(), [&](std::size_t d) { return devices[d]->stamp_role(); },
        [&](std::size_t d) { devices[d]->stamp(sys, ctx); }, step_start);
}

NewtonOutcome newton_iterate(Circuit& circuit, StampContext ctx, Solution& x,
                             const NewtonOptions& options, MnaSystem& scratch) {
    circuit.finalize();
    const std::size_t num_nodes = circuit.num_nodes();
    NewtonOutcome outcome;

    std::vector<double> candidate;
    bool limited = false;
    ctx.limited = &limited;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
        outcome.iterations = iter + 1;
        ctx.x = &x;
        limited = false;
        assemble(circuit, scratch, ctx, options.extra_diag_gmin, iter == 0);
        try {
            scratch.solve(candidate);
        } catch (const SingularMatrixError&) {
            outcome.singular = true;
            return outcome;
        }
        // Non-finite guard: a NaN/Inf unknown can never converge, and every
        // further iteration just smears the poison through the matrix.  Stop
        // at the first one and report its location.
        for (std::size_t i = 0; i < candidate.size(); ++i) {
            if (!std::isfinite(candidate[i])) {
                outcome.non_finite = true;
                outcome.worst_delta = candidate[i];
                outcome.worst_unknown = i;
                return outcome;
            }
        }
        const bool converged =
            !limited && check_converged(x, candidate, num_nodes, options, &outcome);
        x.raw() = candidate;
        if (converged) {
            outcome.converged = true;
            return outcome;
        }
    }
    return outcome;
}

}  // namespace rfabm::circuit
