// Newton-Raphson iteration shared by the DC and transient analyses.
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/device.hpp"
#include "circuit/mna.hpp"
#include "circuit/solution.hpp"

namespace rfabm::circuit {

/// Convergence tolerances for Newton iteration (SPICE-style: per-unknown
/// relative + absolute test, voltages and branch currents separately).
struct NewtonOptions {
    int max_iterations = 100;
    double reltol = 1e-4;
    double vntol = 1e-6;    ///< absolute node-voltage tolerance (V)
    double abstol = 1e-9;   ///< absolute branch-current tolerance (A)
    double extra_diag_gmin = 0.0;  ///< added to every node diagonal (gmin stepping)
    /// Hard budget on Newton iterations summed across every attempt of one
    /// solve_dc() call (plain Newton + all gmin/source-stepping stages), so a
    /// pathological netlist cannot spin the stepping loops unbounded.  The
    /// budget is reported as exhausted in the structured outcome rather than
    /// looping.  <= 0 disables the cap.
    int max_total_iterations = 4000;
};

/// Result of a Newton solve attempt.
struct NewtonOutcome {
    bool converged = false;
    int iterations = 0;
    bool singular = false;  ///< LU hit a structurally/numerically singular pivot
    /// The iterate produced a NaN/Inf unknown.  Detected eagerly (the first
    /// poisoned iteration aborts the solve) so a blown-up exponential fails
    /// in one iteration instead of thrashing the whole budget; worst_unknown
    /// locates the first non-finite entry.
    bool non_finite = false;
    /// Worst per-unknown update of the final iteration: |delta| and the index
    /// of the unknown it occurred at (node order, then branches) — the seed
    /// for "which node is fighting convergence" diagnostics.
    double worst_delta = 0.0;
    std::size_t worst_unknown = 0;
};

/// Stamp every device of @p circuit into @p sys for @p ctx, marking the
/// entries per-iteration devices write as MnaSystem::nonlinear().  The
/// reference that assemble() must reproduce bit for bit.
void stamp_devices(Circuit& circuit, MnaSystem& sys, const StampContext& ctx);

/// Assemble @p sys for one Newton iteration at @p ctx through the assembly
/// plan @p sys keeps (MnaSystem::assemble): the system reset() +
/// stamp_devices() would give, plus @p extra_diag_gmin on every node
/// diagonal when positive.  @p step_start marks the first iteration of a
/// Newton solve, where per-step devices stamp again.
void assemble(Circuit& circuit, MnaSystem& sys, const StampContext& ctx, double extra_diag_gmin,
              bool step_start);

/// Iterate the MNA system described by @p ctx (whose x pointer is managed by
/// this function) starting from @p x until convergence.  @p x is updated in
/// place with the best iterate.  @p scratch keeps its assembly plan and LU
/// state across calls, so a transient engine that reuses it re-stamps only
/// what changed since its last solve.
NewtonOutcome newton_iterate(Circuit& circuit, StampContext ctx, Solution& x,
                             const NewtonOptions& options, MnaSystem& scratch);

}  // namespace rfabm::circuit
