#include "circuit/devices/passive.hpp"

#include <stdexcept>

namespace rfabm::circuit {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms, Placement placement)
    : Device(std::move(name)), a_(a), b_(b), nominal_ohms_(ohms), effective_ohms_(ohms),
      placement_(placement) {
    if (ohms <= 0.0) throw std::invalid_argument("Resistor value must be positive");
}

void Resistor::stamp(MnaSystem& sys, const StampContext&) {
    sys.add_conductance(a_, b_, 1.0 / effective_ohms_);
}

void Resistor::stamp_ac(ComplexMna& sys, double, const Solution&) {
    sys.add_conductance(a_, b_, {1.0 / effective_ohms_, 0.0});
}

void Resistor::apply_process(const ProcessCorner& corner) {
    last_res_factor_ = corner.res_factor;
    effective_ohms_ =
        placement_ == Placement::kOnDie ? nominal_ohms_ * corner.res_factor : nominal_ohms_;
    bump_stamp_version();
}

void Resistor::set_nominal(double ohms) {
    if (ohms <= 0.0) throw std::invalid_argument("Resistor value must be positive");
    nominal_ohms_ = ohms;
    effective_ohms_ =
        placement_ == Placement::kOnDie ? nominal_ohms_ * last_res_factor_ : nominal_ohms_;
    bump_stamp_version();
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads, Placement placement)
    : Device(std::move(name)), a_(a), b_(b), nominal_farads_(farads), effective_farads_(farads),
      placement_(placement) {
    if (farads <= 0.0) throw std::invalid_argument("Capacitor value must be positive");
}

void Capacitor::stamp(MnaSystem& sys, const StampContext& ctx) {
    if (ctx.mode == AnalysisMode::kDc) {
        // Open circuit; a gmin leak keeps nodes with only capacitive paths
        // from making the matrix singular.
        sys.add_conductance(a_, b_, ctx.gmin);
        return;
    }
    const double c = effective_farads_;
    double geq = 0.0;
    double ieq = 0.0;
    if (ctx.method == Integration::kTrapezoidal) {
        geq = 2.0 * c / ctx.dt;
        ieq = -geq * v_prev_ - i_prev_;
    } else {  // backward Euler
        geq = c / ctx.dt;
        ieq = -geq * v_prev_;
    }
    // i(t) = geq * v(t) + ieq  flowing a -> b.
    sys.add_conductance(a_, b_, geq);
    sys.add_current(a_, b_, ieq);
}

void Capacitor::stamp_ac(ComplexMna& sys, double omega, const Solution&) {
    sys.add_conductance(a_, b_, {0.0, omega * effective_farads_});
}

void Capacitor::init_state(const Solution& op) {
    v_prev_ = op.v(a_) - op.v(b_);
    i_prev_ = 0.0;
}

void Capacitor::accept_step(const Solution& x, const StampContext& ctx) {
    const double v_now = x.v(a_) - x.v(b_);
    const double c = effective_farads_;
    if (ctx.method == Integration::kTrapezoidal) {
        i_prev_ = 2.0 * c / ctx.dt * (v_now - v_prev_) - i_prev_;
    } else {
        i_prev_ = c / ctx.dt * (v_now - v_prev_);
    }
    v_prev_ = v_now;
}

void Capacitor::apply_process(const ProcessCorner& corner) {
    last_cap_factor_ = corner.cap_factor;
    effective_farads_ =
        placement_ == Placement::kOnDie ? nominal_farads_ * corner.cap_factor : nominal_farads_;
}

void Capacitor::set_nominal(double farads) {
    if (farads <= 0.0) throw std::invalid_argument("Capacitor value must be positive");
    nominal_farads_ = farads;
    effective_farads_ =
        placement_ == Placement::kOnDie ? nominal_farads_ * last_cap_factor_ : nominal_farads_;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId a, NodeId b, double henries)
    : Device(std::move(name)), a_(a), b_(b), henries_(henries) {
    if (henries <= 0.0) throw std::invalid_argument("Inductor value must be positive");
}

void Inductor::stamp(MnaSystem& sys, const StampContext& ctx) {
    const std::size_t br = first_branch();
    // KCL: branch current flows a -> b through the inductor.
    sys.add_branch_to_node(a_, br, +1.0);
    sys.add_branch_to_node(b_, br, -1.0);
    if (ctx.mode == AnalysisMode::kDc) {
        // v(a) - v(b) = 0 (ideal short).
        sys.add_node_to_branch(br, a_, +1.0);
        sys.add_node_to_branch(br, b_, -1.0);
        return;
    }
    // Companion: BE:  v = (L/dt) (i - i_prev)
    //            TR:  v = (2L/dt)(i - i_prev) - v_prev
    const double l = henries_;
    double req = 0.0;
    double veq = 0.0;
    if (ctx.method == Integration::kTrapezoidal) {
        req = 2.0 * l / ctx.dt;
        veq = -req * i_prev_ - v_prev_;
    } else {
        req = l / ctx.dt;
        veq = -req * i_prev_;
    }
    // v(a) - v(b) - req * i = veq
    sys.add_node_to_branch(br, a_, +1.0);
    sys.add_node_to_branch(br, b_, -1.0);
    sys.add_branch_to_branch(br, br, -req);
    sys.add_branch_rhs(br, veq);
}

void Inductor::stamp_ac(ComplexMna& sys, double omega, const Solution&) {
    const std::size_t br = first_branch();
    sys.add_branch_to_node(a_, br, {1.0, 0.0});
    sys.add_branch_to_node(b_, br, {-1.0, 0.0});
    sys.add_node_to_branch(br, a_, {1.0, 0.0});
    sys.add_node_to_branch(br, b_, {-1.0, 0.0});
    sys.add_branch_to_branch(br, br, {0.0, -omega * henries_});
}

void Inductor::init_state(const Solution& op) {
    i_prev_ = op.branch_current(first_branch());
    v_prev_ = op.v(a_) - op.v(b_);
}

void Inductor::accept_step(const Solution& x, const StampContext& ctx) {
    const double i_now = x.branch_current(first_branch());
    const double l = henries_;
    if (ctx.method == Integration::kTrapezoidal) {
        v_prev_ = 2.0 * l / ctx.dt * (i_now - i_prev_) - v_prev_;
    } else {
        v_prev_ = l / ctx.dt * (i_now - i_prev_);
    }
    i_prev_ = i_now;
}

}  // namespace rfabm::circuit
