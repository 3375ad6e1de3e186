#include "circuit/devices/switch_device.hpp"

#include <stdexcept>

namespace rfabm::circuit {

Switch::Switch(std::string name, NodeId a, NodeId b, double ron, double roff)
    : Device(std::move(name)), a_(a), b_(b), ron_nominal_(ron), ron_eff_(ron), roff_(roff) {
    if (ron <= 0.0 || roff <= 0.0 || roff < ron) {
        throw std::invalid_argument("Switch requires 0 < ron <= roff");
    }
}

void Switch::stamp(MnaSystem& sys, const StampContext&) {
    sys.add_conductance(a_, b_, effective_closed() ? 1.0 / ron_eff_ : 1.0 / roff_);
}

void Switch::stamp_ac(ComplexMna& sys, double, const Solution&) {
    sys.add_conductance(a_, b_, {effective_closed() ? 1.0 / ron_eff_ : 1.0 / roff_, 0.0});
}

void Switch::apply_process(const ProcessCorner& corner) {
    // Transmission-gate on-resistance tracks carrier mobility: a faster
    // process (higher K') gives a lower Ron.  Use the NMOS factor; the gate is
    // a parallel N/P pair so this is a first-order approximation.
    ron_eff_ = ron_nominal_ / corner.nmos_kp_factor;
    bump_stamp_version();
}

}  // namespace rfabm::circuit
