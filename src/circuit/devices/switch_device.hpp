// Externally controlled analog switch.
//
// This is the workhorse of the IEEE 1149.4 infrastructure: every ABM switch
// (SD, SB1, SB2, SG, SH, SL), every TBIC bus switch and the ".4 MUX" switch
// matrix map onto instances of this device.  The digital test logic (boundary
// register, serial select register) drives set_closed() between transient
// steps; electrically the switch is Ron when closed and Roff when open, which
// is how transmission gates behave to first order.
#pragma once

#include "circuit/device.hpp"

namespace rfabm::circuit {

/// Manufacturing/wear-out defect states a transmission gate can assume.  A
/// stuck switch ignores its control input: the gate oxide shorted (stuck
/// closed) or the pass devices never turn on (stuck open).
enum class SwitchFault {
    kNone,        ///< healthy: follows set_closed()
    kStuckOpen,   ///< always Roff regardless of control
    kStuckClosed, ///< always Ron regardless of control
};

/// Two-state analog switch between nodes a and b.
class Switch : public Device {
  public:
    /// @p ron / @p roff are the closed/open resistances.  Defaults model an
    /// on-die CMOS transmission gate.
    Switch(std::string name, NodeId a, NodeId b, double ron = 100.0, double roff = 1e9);

    /// Matrix-constant: set_closed(), set_fault() and apply_process() bump
    /// the stamp version.
    StampRole stamp_role() const override { return StampRole::kConstant; }
    void stamp(MnaSystem& sys, const StampContext& ctx) override;
    void stamp_ac(ComplexMna& sys, double omega, const Solution& op) override;
    void apply_process(const ProcessCorner& corner) override;

    /// Command the switch.  The digital domain re-applies its bindings every
    /// step, so only a change of state bumps the stamp version.
    void set_closed(bool closed) {
        if (closed == closed_) return;
        closed_ = closed;
        bump_stamp_version();
    }
    bool closed() const { return closed_; }

    /// Inject/clear a stuck-at defect.  The commanded state is retained so
    /// clearing the fault restores normal operation.
    void set_fault(SwitchFault fault) {
        fault_ = fault;
        bump_stamp_version();
    }
    SwitchFault fault() const { return fault_; }

    /// Electrically effective state: the defect overrides the control input.
    bool effective_closed() const {
        if (fault_ == SwitchFault::kStuckOpen) return false;
        if (fault_ == SwitchFault::kStuckClosed) return true;
        return closed_;
    }

    double ron() const { return ron_eff_; }
    double roff() const { return roff_; }

    NodeId a() const { return a_; }
    NodeId b() const { return b_; }

    /// Both states have finite resistance (Ron / Roff), so a switch always
    /// provides a (possibly weak) DC path.
    std::vector<NodeId> terminals() const override { return {a_, b_}; }
    std::vector<std::pair<NodeId, NodeId>> dc_paths() const override { return {{a_, b_}}; }

  private:
    NodeId a_;
    NodeId b_;
    double ron_nominal_;
    double ron_eff_;
    double roff_;
    bool closed_ = false;
    SwitchFault fault_ = SwitchFault::kNone;
};

}  // namespace rfabm::circuit
