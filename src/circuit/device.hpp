// Device base class for the MNA simulator.
//
// Every circuit element implements stamp(): write its (possibly linearized)
// contribution into the MNA system for the current Newton iterate.  Reactive
// devices keep companion-model history that analyses advance via init_state()
// and accept_step().  Nonlinear devices may keep per-iteration limiting state,
// which is why stamp() is non-const.
//
// Every device also declares a stamp role (StampRole, mna.hpp), which sets
// how often a Newton loop's assembly plan calls its stamp(): once per plan
// (matrix-constant), once per Newton solve (per-step) or every iteration
// (per-iteration).  The default follows is_nonlinear(), so a device that
// declares nothing is re-stamped at least once per solve and stays correct.
// A device may declare StampRole::kConstant only if every mutator that can
// change its stamp calls bump_stamp_version(): the plan notices nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/process.hpp"
#include "circuit/solution.hpp"
#include "circuit/types.hpp"

namespace rfabm::circuit {

/// What kind of system is being assembled.
enum class AnalysisMode {
    kDc,         ///< operating point / DC sweep: capacitors open, inductors short
    kTransient,  ///< time step: reactive devices stamp companion models
};

/// Per-assembly context handed to Device::stamp().
struct StampContext {
    AnalysisMode mode = AnalysisMode::kDc;
    const Solution* x = nullptr;       ///< current Newton iterate (never null)
    double time = 0.0;                 ///< end-of-step time (transient)
    double dt = 0.0;                   ///< step size (transient)
    Integration method = Integration::kBackwardEuler;
    double gmin = kGminDefault;        ///< junction conductance floor
    double source_scale = 1.0;         ///< source-stepping homotopy factor
    /// Set by a nonlinear device when it clamps its junction voltages this
    /// stamp.  Newton must not declare convergence while any device limits:
    /// a clamped stamp can reproduce the previous iterate exactly even though
    /// the device equations are unsatisfied.
    bool* limited = nullptr;
};

/// Abstract circuit element.
class Device {
  public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }

    /// Number of MNA branch equations this device owns (0 for most).
    virtual std::size_t branch_count() const { return 0; }

    /// Index of the device's first branch equation; set by Circuit::finalize().
    std::size_t first_branch() const { return first_branch_; }
    void set_first_branch(std::size_t b) { first_branch_ = b; }

    /// True if the device's stamp depends on the iterate (needs Newton).
    virtual bool is_nonlinear() const { return false; }

    /// How often the device's stamp can change.  A nonlinear device is
    /// always per-iteration; override only to declare a linear device
    /// matrix-constant, and then bump the stamp version in every mutator.
    virtual StampRole stamp_role() const {
        return is_nonlinear() ? StampRole::kPerIteration : StampRole::kPerStep;
    }

    /// The counter bump_stamp_version() increments; Circuit::add attaches
    /// the circuit's own.
    void set_stamp_version(std::uint64_t* version) { stamp_version_ = version; }

    /// Nodes this device's terminals attach to, in the device's natural
    /// terminal order.  Used by connectivity analyses (ERC lint); an empty
    /// list means "opaque to connectivity checks".
    virtual std::vector<NodeId> terminals() const { return {}; }

    /// Terminal-node pairs between which the element conducts at DC (finite
    /// resistance in at least one control state).  The static analyzer uses
    /// these to find nodes without a DC path to ground before any solve.
    virtual std::vector<std::pair<NodeId, NodeId>> dc_paths() const { return {}; }

    /// Write the device's contribution for the given context.
    virtual void stamp(MnaSystem& sys, const StampContext& ctx) = 0;

    /// AC small-signal stamp, linearized around the operating point @p op at
    /// angular frequency @p omega.  Default: no AC contribution.
    virtual void stamp_ac(ComplexMna& sys, double omega, const Solution& op);

    /// Initialize companion-model / limiting history from a converged DC
    /// operating point before a transient run.
    virtual void init_state(const Solution& op);

    /// Commit state after a converged transient step (solution @p x at ctx.time).
    virtual void accept_step(const Solution& x, const StampContext& ctx);

    /// Apply an absolute device temperature (kelvin).  Default: ignored.
    virtual void set_temperature(double temperature_k);

    /// Apply a die-level process corner.  Default: ignored.
    virtual void apply_process(const ProcessCorner& corner);

  protected:
    /// Mark the device's matrix-constant stamp as changed, so assembly plans
    /// keyed on the old stamp version stamp it again.
    void bump_stamp_version() {
        if (stamp_version_ != nullptr) ++*stamp_version_;
    }

  private:
    std::string name_;
    std::size_t first_branch_ = 0;
    std::uint64_t* stamp_version_ = nullptr;
};

}  // namespace rfabm::circuit
