// Newton convergence-aid tests: circuits engineered to defeat plain
// iteration and require gmin stepping / source stepping, plus tolerance and
// failure-path behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>

#include "circuit/dc.hpp"
#include "circuit/devices/diode.hpp"
#include "circuit/devices/mosfet.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/transient.hpp"

namespace rfabm::circuit {
namespace {

TEST(Convergence, FloatingMidpointBetweenDiodes) {
    // Two anti-series diodes leave their midpoint with no DC path: only the
    // gmin floor defines it.  Plain Newton converges, but the matrix would be
    // singular without the junction gmin.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId mid = ckt.node("mid");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(1.0));
    ckt.add<Diode>("D1", in, mid);
    ckt.add<Diode>("D2", kGround, mid);  // both cathodes at mid: no path out
    const auto r = solve_dc(ckt);
    EXPECT_GE(r.solution.v(mid), -0.1);
    EXPECT_LE(r.solution.v(mid), 1.1);
}

TEST(Convergence, HardDiodeStackFromColdStart) {
    // Five series diodes at a high drive: exponential blow-up territory for
    // un-limited Newton; junction limiting + fallbacks must handle it.
    Circuit ckt;
    NodeId prev = ckt.node("in");
    ckt.add<VSource>("V", prev, kGround, Waveform::dc(20.0));
    ckt.add<Resistor>("RS", prev, ckt.node("a0"), 10.0);
    prev = ckt.node("a0");
    for (int i = 0; i < 5; ++i) {
        const NodeId next = ckt.node("a" + std::to_string(i + 1));
        ckt.add<Diode>("D" + std::to_string(i), prev, next);
        prev = next;
    }
    ckt.add<Resistor>("RL", prev, kGround, 1.0);
    const auto r = solve_dc(ckt);
    // ~20 V across ~11 ohm + 5 drops: a few drops of ~0.8-0.9 V at ~1.7 A.
    const double v_stack = r.solution.v(ckt.node("a0")) - r.solution.v(prev);
    EXPECT_GT(v_stack, 3.0);
    EXPECT_LT(v_stack, 6.0);
}

TEST(Convergence, CrossCoupledLatchFindsAStableState) {
    // A bistable CMOS latch (cross-coupled inverters) has three solutions;
    // the homotopy aids must land on one of the two stable ones, not blow up.
    Circuit ckt;
    const NodeId vdd = ckt.node("vdd");
    ckt.add<VSource>("VDD", vdd, kGround, Waveform::dc(2.5));
    const NodeId q = ckt.node("q");
    const NodeId qb = ckt.node("qb");
    MosfetParams pn;
    MosfetParams pp;
    pp.type = MosType::kPmos;
    pp.w = 25e-6;
    pp.kp = 40e-6;
    ckt.add<Mosfet>("MN1", q, qb, kGround, pn);
    ckt.add<Mosfet>("MP1", q, qb, vdd, pp);
    ckt.add<Mosfet>("MN2", qb, q, kGround, pn);
    ckt.add<Mosfet>("MP2", qb, q, vdd, pp);
    // Slight asymmetry so a definite state wins.
    ckt.add<Resistor>("RBIAS", q, kGround, 1e6);
    const auto r = solve_dc(ckt);
    const double vq = r.solution.v(q);
    const double vqb = r.solution.v(qb);
    EXPECT_GE(vq, -0.1);
    EXPECT_LE(vq, 2.6);
    EXPECT_GE(vqb, -0.1);
    EXPECT_LE(vqb, 2.6);
    // Complementary-ish outputs (metastable midpoint also acceptable for a
    // DC solver, but the sum must be near VDD in all three solutions).
    EXPECT_NEAR(vq + vqb, 2.5, 1.3);
}

TEST(Convergence, HomotopyRescuesWhenPlainNewtonBudgetTooSmall) {
    // A cold diode solve needs ~9 limited Newton steps; with a budget of 8
    // plain iteration fails and a homotopy fallback (gmin or source
    // stepping, each warm-starting from the previous rung) must rescue it.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(5.0));
    ckt.add<Resistor>("R", in, a, 100.0);
    ckt.add<Diode>("D", a, kGround);
    DcOptions opts;
    opts.newton.max_iterations = 8;
    const auto r = solve_dc(ckt, opts);
    EXPECT_TRUE(r.used_gmin_stepping || r.used_source_stepping);
    EXPECT_GT(r.solution.v(a), 0.6);
    EXPECT_LT(r.solution.v(a), 1.1);
}

TEST(Convergence, ThrowsWhenEverythingFails) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(5.0));
    ckt.add<Resistor>("R", in, a, 100.0);
    ckt.add<Diode>("D", a, kGround);
    DcOptions opts;
    opts.newton.max_iterations = 1;
    opts.allow_gmin_stepping = false;
    opts.allow_source_stepping = false;
    EXPECT_THROW(solve_dc(ckt, opts), ConvergenceError);
}

TEST(Convergence, TightToleranceStillConverges) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(3.0));
    ckt.add<Resistor>("R", in, a, 1e3);
    ckt.add<Diode>("D", a, kGround);
    DcOptions opts;
    opts.newton.reltol = 1e-9;
    opts.newton.vntol = 1e-12;
    const auto r = solve_dc(ckt, opts);
    // Residual check: diode current equals resistor current to high accuracy.
    const auto& d = ckt.get<Diode>("D");
    const double i_r = (3.0 - r.solution.v(a)) / 1e3;
    EXPECT_NEAR(d.current(r.solution.v(a)), i_r, i_r * 1e-6);
}

TEST(Convergence, TransientStepSubdivisionOnHardEdge) {
    // A nearly ideal step into a diode clamp: the first transient step may
    // fail Newton and must subdivide rather than throw.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    PulseWave pw;
    pw.v1 = -5.0;
    pw.v2 = 5.0;
    pw.delay = 1e-9;
    pw.rise = 1e-13;  // brutal edge
    pw.width = 1.0;
    ckt.add<VSource>("V", in, kGround, Waveform::pulse(pw));
    ckt.add<Resistor>("R", in, a, 50.0);
    ckt.add<Diode>("D", a, kGround);
    ckt.add<Capacitor>("C", a, kGround, 1e-12);
    TransientOptions topts;
    topts.dt = 0.5e-9;
    TransientEngine engine(ckt, topts);
    engine.init();
    EXPECT_NO_THROW(engine.run_until(5e-9));
    EXPECT_GT(engine.v(a), 0.5);
    EXPECT_LT(engine.v(a), 1.2);
}

TEST(Convergence, NonFiniteSourceFailsFastWithLocation) {
    // A NaN stimulus poisons the RHS: the guard must abort on the FIRST
    // poisoned iteration (not grind through gmin/source stepping, which can
    // never fix arithmetic poison) and name the poisoned unknown.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V", in, kGround, Waveform::dc(std::nan("")));
    ckt.add<Resistor>("R", in, a, 100.0);
    ckt.add<Diode>("D", a, kGround);
    try {
        solve_dc(ckt);
        FAIL() << "expected ConvergenceError";
    } catch (const ConvergenceError& e) {
        EXPECT_TRUE(e.non_finite());
        const ConvergenceDiagnostics& diag = e.diagnostics();
        EXPECT_FALSE(diag.worst_unknown.empty()) << "must locate the poisoned unknown";
        EXPECT_LE(diag.total_iterations, 2) << "non-finite must fail fast, not retry";
        EXPECT_FALSE(diag.gmin_stepping_attempted);
        EXPECT_FALSE(diag.source_stepping_attempted);
    }
}

TEST(Convergence, NonFiniteDiagnosticNamesThePoisonedSubcircuit) {
    // Two disjoint R-diode subcircuits, the second driven by a NaN source.
    // The poison must stay in the subcircuit it enters, so the first
    // non-finite unknown (the reported location) belongs to it, not to the
    // healthy subcircuit that precedes it in unknown order.
    Circuit ckt;
    const NodeId in1 = ckt.node("in1");
    const NodeId a1 = ckt.node("a1");
    const NodeId in2 = ckt.node("in2");
    const NodeId a2 = ckt.node("a2");
    ckt.add<VSource>("V1", in1, kGround, Waveform::dc(1.0));
    ckt.add<Resistor>("R1", in1, a1, 100.0);
    ckt.add<Diode>("D1", a1, kGround);
    ckt.add<VSource>("V2", in2, kGround, Waveform::dc(std::nan("")));
    ckt.add<Resistor>("R2", in2, a2, 100.0);
    ckt.add<Diode>("D2", a2, kGround);
    const DcOutcome out = try_solve_dc(ckt);
    ASSERT_FALSE(out.ok);
    EXPECT_TRUE(out.diagnostics.non_finite);
    const std::string& where = out.diagnostics.worst_unknown;
    EXPECT_TRUE(where == "node 'in2'" || where == "node 'a2'") << where;
}

TEST(Convergence, NonFiniteDuringTransientIsLocatedAndNotSubdivided) {
    // The engine starts healthy (DC op at t=0 is finite), then the stimulus
    // goes NaN mid-run: advance() must raise the located non-finite error
    // instead of burning max_step_subdivisions on un-fixable poison.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    PulseWave pw;
    pw.v1 = 0.0;
    pw.v2 = std::nan("");
    pw.delay = 1e-9;
    pw.rise = 1e-12;
    pw.width = 1.0;
    ckt.add<VSource>("V", in, kGround, Waveform::pulse(pw));
    ckt.add<Resistor>("R", in, a, 50.0);
    ckt.add<Capacitor>("C", a, kGround, 1e-12);
    TransientOptions topts;
    topts.dt = 0.5e-9;
    TransientEngine engine(ckt, topts);
    engine.init();
    try {
        engine.run_until(5e-9);
        FAIL() << "expected ConvergenceError";
    } catch (const ConvergenceError& e) {
        EXPECT_TRUE(e.non_finite());
        EXPECT_FALSE(e.diagnostics().worst_unknown.empty());
    }
}

TEST(Convergence, CancelledTokenAbortsTransientAsSolveAborted) {
    // SolveAborted (cancellation) is deliberately NOT a ConvergenceError:
    // the campaign layer must distinguish "watchdog reclaimed it" from "the
    // numerics failed".
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V", in, kGround, Waveform::sine(0.0, 1.0, 1e9));
    ckt.add<Resistor>("R", in, ckt.node("a"), 1e3);
    ckt.add<Capacitor>("C", ckt.node("a"), kGround, 1e-12);
    rfabm::exec::CancellationSource source;
    TransientOptions topts;
    topts.dt = 50e-12;
    topts.cancel = source.token();
    TransientEngine engine(ckt, topts);
    engine.init();
    EXPECT_NO_THROW(engine.step());  // healthy while the token is quiet
    source.cancel();
    EXPECT_THROW(engine.step(), SolveAborted);
    // SolveAborted must not be catchable as ConvergenceError.
    try {
        engine.step();
        FAIL() << "expected SolveAborted";
    } catch (const ConvergenceError&) {
        FAIL() << "cancellation must not masquerade as a convergence failure";
    } catch (const SolveAborted&) {
        SUCCEED();
    }
}

TEST(Convergence, HeartbeatAdvancesWithAcceptedSteps) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V", in, kGround, Waveform::sine(0.0, 1.0, 1e9));
    ckt.add<Resistor>("R", in, ckt.node("a"), 1e3);
    ckt.add<Capacitor>("C", ckt.node("a"), kGround, 1e-12);
    std::atomic<std::uint64_t> beat{0};
    TransientOptions topts;
    topts.dt = 50e-12;
    topts.heartbeat = &beat;
    TransientEngine engine(ckt, topts);
    engine.init();
    engine.run_for(2e-9);
    EXPECT_GE(beat.load(), engine.steps_taken())
        << "every accepted step must pulse the watchdog heartbeat";
}

}  // namespace
}  // namespace rfabm::circuit
