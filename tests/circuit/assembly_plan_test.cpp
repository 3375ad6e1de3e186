// The assembly plan newton_iterate keeps in its MnaSystem must assemble, at
// every Newton iteration, exactly the system stamp_devices assembles on a
// fresh system: through every mutator of a matrix-constant device, per-step
// structure changes, subdivided steps, DC gmin and source stepping, and a
// MOSFET whose drain and source swap.  tests/support/assembly_audit.hpp
// checks each iteration; these tests drive the scenarios and make sure the
// audit saw them.
#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/devices/defects.hpp"
#include "circuit/devices/mosfet.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/devices/switch_device.hpp"
#include "circuit/newton.hpp"
#include "circuit/transient.hpp"
#include "support/assembly_audit.hpp"

namespace rfabm::circuit {
namespace {

using test::AssemblyAudit;

/// A small mixed netlist with a device of every stamp role: resistors and
/// switches (matrix-constant), capacitors, an inductor, sources and a
/// disarmed bridge (per-step), and MOSFETs (per-iteration), one of them a
/// pass gate between two antiphase drives, so its drain and source swap
/// every half period.
void build(Circuit& c) {
    const NodeId vdd = c.node("vdd");
    const NodeId in = c.node("in");
    const NodeId a = c.node("a");
    const NodeId out = c.node("out");
    const NodeId mid = c.node("mid");
    const NodeId b = c.node("b");
    const NodeId p = c.node("p");
    const NodeId q = c.node("q");
    c.add<VSource>("VDD", vdd, kGround, Waveform::dc(3.3));
    c.add<VSource>("VIN", in, kGround, Waveform::sine(1.0, 0.6, 1e9));
    c.add<Resistor>("RIN", in, a, 100.0);
    c.add<Resistor>("RL", vdd, out, 5e3);
    c.add<Capacitor>("COUT", out, kGround, 1e-12);
    c.add<Mosfet>("M1", out, a, kGround);
    c.add<Switch>("S1", a, mid);
    c.add<Switch>("S2", mid, kGround);
    c.add<Capacitor>("CMID", mid, kGround, 0.5e-12);
    c.add<Inductor>("L1", mid, b, 10e-9);
    c.add<Resistor>("RB", b, kGround, 50.0);
    c.add<BridgeDefect>("BR", a, out, 1e3);
    c.add<VSource>("VP", c.node("vp"), kGround, Waveform::sine(1.0, 0.8, 0.5e9));
    c.add<Resistor>("RP", c.node("vp"), p, 200.0);
    c.add<VSource>("VQ", c.node("vq"), kGround, Waveform::sine(1.0, -0.8, 0.5e9));
    c.add<Resistor>("RQ", c.node("vq"), q, 200.0);
    c.add<Mosfet>("MPASS", p, vdd, q);
}

/// The audited circuit, its twin, and the audit.
struct Audited {
    Circuit circuit;
    Circuit twin;
    AssemblyAudit* audit = nullptr;
    Audited() {
        build(circuit);
        build(twin);
        audit = &test::add_audit(circuit, twin);
    }
};

void expect_clean(const AssemblyAudit& audit) {
    EXPECT_EQ(audit.mismatches(), 0) << audit.first_mismatch();
    EXPECT_EQ(audit.unchecked(), 0);
}

TEST(AssemblyPlan, MatchesStampDevicesThroughEveryConstantMutator) {
    Audited t;
    TransientOptions opts;
    opts.dt = 20e-12;
    TransientEngine engine(t.circuit, opts);
    engine.init();
    const auto run = [&](int steps) {
        for (int i = 0; i < steps; ++i) engine.step();
    };
    run(40);
    const int before = t.audit->assemblies_checked();

    // Each mutation changes a matrix-constant stamp on its own, between
    // steps of an unchanged key: only its stamp-version bump re-plans.
    auto& s1 = t.circuit.get<Switch>("S1");
    auto& s2 = t.circuit.get<Switch>("S2");
    auto& rl = t.circuit.get<Resistor>("RL");
    s1.set_closed(true);
    run(15);
    s2.set_fault(SwitchFault::kStuckClosed);
    run(15);
    s2.set_fault(SwitchFault::kNone);
    run(15);
    ProcessCorner fast;
    fast.nmos_kp_factor = 1.3;
    s1.apply_process(fast);
    t.twin.get<Switch>("S1").apply_process(fast);
    run(15);
    ProcessCorner high_r;
    high_r.res_factor = 1.2;
    rl.apply_process(high_r);
    t.twin.get<Resistor>("RL").apply_process(high_r);
    run(15);
    rl.set_nominal(7e3);
    run(15);
    t.circuit.get<BridgeDefect>("BR").arm();
    run(15);
    t.circuit.get<BridgeDefect>("BR").disarm();
    run(15);
    // A capacitor: unlike a resistor, nothing in its own set-up bumps.
    t.circuit.add<Capacitor>("CADD", t.circuit.node("out"), kGround, 0.2e-12);
    t.twin.add<Capacitor>("CADD", t.twin.node("out"), kGround, 0.2e-12);
    run(15);
    s1.set_closed(false);
    run(15);

    expect_clean(*t.audit);
    EXPECT_GT(t.audit->assemblies_checked() - before, 150 * 2);
    EXPECT_GT(t.audit->solutions_checked(), 150);
}

TEST(AssemblyPlan, MatchesThroughDcGminAndSourceStepping) {
    Audited t;
    t.circuit.finalize();
    MnaSystem sys;
    StampContext ctx;
    ctx.mode = AnalysisMode::kDc;
    NewtonOptions opts;
    const auto solve = [&](Solution& x, double extra_gmin) {
        opts.extra_diag_gmin = extra_gmin;
        t.audit->set_extra_diag_gmin(extra_gmin);
        const NewtonOutcome out = newton_iterate(t.circuit, ctx, x, opts, sys);
        t.audit->flush(sys);
        return out.converged;
    };
    // The stages of try_solve_dc on one system: gmin stepping from a heavily
    // damped matrix down to none, then source stepping from a dead circuit.
    Solution x(t.circuit.num_nodes(), t.circuit.num_branches());
    for (double g = 1e-2; g >= 1e-12 * 0.99; g *= 0.1) EXPECT_TRUE(solve(x, g > 1e-12 ? g : 0.0));
    EXPECT_TRUE(solve(x, 0.0));
    Solution y(t.circuit.num_nodes(), t.circuit.num_branches());
    for (double scale : {0.05, 0.1, 0.2, 0.4, 0.7, 1.0}) {
        ctx.source_scale = scale;
        EXPECT_TRUE(solve(y, 0.0));
    }
    expect_clean(*t.audit);
    EXPECT_GT(t.audit->assemblies_checked(), 30);
    EXPECT_GT(t.audit->solutions_checked(), 10);
    EXPECT_GE(sys.plan_updates(), 10u) << "every stage re-keys the plan";
}

TEST(AssemblyPlan, MatchesThroughSubdividedSteps) {
    Audited t;
    // A 3 V edge in one 50 ps step needs more Newton iterations than allowed
    // while the MOSFET limits its gate swing, so the engine halves the step.
    PulseWave edge;
    edge.v1 = 0.0;
    edge.v2 = 3.0;
    edge.delay = 0.5e-9;
    edge.rise = 10e-12;
    edge.width = 1e-9;
    t.circuit.get<VSource>("VIN").set_waveform(Waveform::pulse(edge));
    TransientOptions opts;
    opts.dt = 50e-12;
    TransientEngine engine(t.circuit, opts);
    engine.init();
    engine.options().newton.max_iterations = 4;
    constexpr int kSteps = 60;
    for (int i = 0; i < kSteps; ++i) engine.step();
    EXPECT_GT(engine.steps_taken(), static_cast<std::size_t>(kSteps)) << "no step was subdivided";
    expect_clean(*t.audit);
    EXPECT_GT(t.audit->assemblies_checked(), kSteps);
}

TEST(AssemblyPlan, FallsBackWhenAMosfetSwapsDrainAndSource) {
    Audited t;
    TransientOptions opts;
    opts.dt = 25e-12;
    TransientEngine engine(t.circuit, opts);
    engine.init();
    // Four periods of the antiphase drive: eight crossings of the pass gate.
    for (int i = 0; i < 320; ++i) engine.step();
    expect_clean(*t.audit);
    EXPECT_GT(t.audit->mid_solve_compiles(), 0)
        << "no Newton solve saw the pass gate swap between iterations";
}

/// A matrix-constant resistor that counts its stamps.
class CountingResistor : public Resistor {
  public:
    using Resistor::Resistor;
    void stamp(MnaSystem& sys, const StampContext& ctx) override {
        ++stamps;
        Resistor::stamp(sys, ctx);
    }
    int stamps = 0;
};

TEST(AssemblyPlan, StampsConstantDevicesOncePerPlan) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VSource>("V", in, kGround, Waveform::sine(0.0, 1.0, 1e9));
    auto& r = c.add<CountingResistor>("R", in, out, 1e3);
    c.add<Capacitor>("C", out, kGround, 1e-12);
    c.add<Mosfet>("M", out, in, kGround);
    TransientOptions opts;
    opts.dt = 10e-12;
    TransientEngine engine(c, opts);
    engine.init();
    const int after_init = r.stamps;
    for (int i = 0; i < 200; ++i) engine.step();
    // Plans: the backward-Euler first step, then trapezoidal steps.
    EXPECT_EQ(r.stamps - after_init, 2);
    EXPECT_GT(engine.newton_iterations(), 200u);
    r.set_nominal(2e3);
    engine.step();
    EXPECT_EQ(r.stamps - after_init, 3) << "set_nominal re-plans once";
}

}  // namespace
}  // namespace rfabm::circuit
