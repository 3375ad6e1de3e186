#include "circuit/measure.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/devices/diode.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "exec/cancellation.hpp"

namespace rfabm::circuit {
namespace {

TEST(Measure, SettleOnDcIsImmediate) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V1", in, kGround, Waveform::dc(1.5));
    ckt.add<Resistor>("R1", in, kGround, 1e3);
    TransientOptions topts;
    topts.dt = 1e-9;
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 100e-9;
    const SettleResult r = settle_cycle_average(engine, in, kGround, sopts);
    EXPECT_TRUE(r.settled);
    EXPECT_NEAR(r.value, 1.5, 1e-6);
    EXPECT_EQ(r.windows, sopts.min_windows);
}

TEST(Measure, SineAveragesToOffset) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V1", in, kGround, Waveform::sine(0.7, 1.0, 10e6));
    ckt.add<Resistor>("R1", in, kGround, 1e3);
    TransientOptions topts;
    topts.dt = 1e-9;  // 100 points/cycle
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 100e-9;
    const SettleResult r = settle_cycle_average(engine, in, kGround, sopts);
    EXPECT_TRUE(r.settled);
    EXPECT_NEAR(r.value, 0.7, 1e-3);
}

TEST(Measure, RectifierSettlesToDcLevel) {
    // Diode peak detector: settle should wait for the RC charge-up.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, kGround, Waveform::sine(0.0, 1.0, 10e6));
    ckt.add<Diode>("D1", in, out);
    ckt.add<Resistor>("RL", out, kGround, 100e3);
    ckt.add<Capacitor>("CL", out, kGround, 200e-12);  // tau = 20 us
    TransientOptions topts;
    topts.dt = 2e-9;
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 100e-9;
    sopts.cycles_per_window = 10;
    sopts.abs_tol = 1e-6;
    const SettleResult r = settle_cycle_average(engine, out, kGround, sopts);
    EXPECT_TRUE(r.settled);
    EXPECT_GT(r.value, 0.3);
    // Multiple windows were needed (the cap had to charge through ~tau).
    EXPECT_GT(r.windows, 3);
}

TEST(Measure, DifferentialProbeCancelsCommonMode) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    ckt.add<VSource>("VA", a, kGround, Waveform::sine(1.0, 0.5, 1e6));
    ckt.add<VSource>("VB", b, kGround, Waveform::sine(0.4, 0.5, 1e6));
    ckt.add<Resistor>("RA", a, kGround, 1e3);
    ckt.add<Resistor>("RB", b, kGround, 1e3);
    TransientOptions topts;
    topts.dt = 10e-9;
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 1e-6;
    const SettleResult r = settle_cycle_average(engine, a, b, sopts);
    EXPECT_TRUE(r.settled);
    EXPECT_NEAR(r.value, 0.6, 1e-3);
}

TEST(Measure, WindowAverageOfSettledWave) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V1", in, kGround, Waveform::sine(0.25, 1.0, 10e6));
    ckt.add<Resistor>("R1", in, kGround, 1e3);
    TransientOptions topts;
    topts.dt = 1e-9;
    TransientEngine engine(ckt, topts);
    engine.init();
    const double avg = window_average(engine, in, kGround, 1e-6);
    EXPECT_NEAR(avg, 0.25, 2e-3);
}

TEST(Measure, RejectsNonPositivePeriod) {
    Circuit ckt;
    ckt.add<Resistor>("R1", ckt.node("a"), kGround, 1e3);
    TransientEngine engine(ckt, {});
    SettleOptions sopts;
    sopts.period = 0.0;
    EXPECT_THROW(settle_cycle_average(engine, kGround, kGround, sopts), std::invalid_argument);
}

TEST(Measure, UnsettledReportsFalse) {
    // A very slow ramp never settles within max_windows.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<VSource>("V1", in, kGround, Waveform::pwl({{0.0, 0.0}, {1.0, 1000.0}}));
    ckt.add<Resistor>("R1", in, kGround, 1e3);
    TransientOptions topts;
    topts.dt = 10e-9;
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 100e-9;
    sopts.max_windows = 5;
    const SettleResult r = settle_cycle_average(engine, in, kGround, sopts);
    EXPECT_FALSE(r.settled);
    EXPECT_EQ(r.windows, 5);
}

/// Fires a cancellation source on the @p steps-th accepted step.
class CancelAfterSteps : public StepObserver {
  public:
    CancelAfterSteps(exec::CancellationSource& source, int steps)
        : source_(source), steps_(steps) {}
    void on_step(double, const Solution&, Circuit&) override {
        if (++seen_ == steps_) source_.cancel();
    }

  private:
    exec::CancellationSource& source_;
    int steps_;
    int seen_ = 0;
};

TEST(Measure, CancelledSettleLeavesTheEngineSteppable) {
    // The checked measurement pipeline steps the same engine again after a
    // read is cancelled or fails to converge (backoff dwell, re-read), so
    // neither settle helper may leave its observer registered when the run
    // throws.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, kGround, Waveform::sine(0.5, 0.5, 10e6));
    ckt.add<Resistor>("R1", in, out, 1e3);
    ckt.add<Capacitor>("C1", out, kGround, 100e-12);  // tau = 100 ns
    TransientOptions topts;
    topts.dt = 1e-9;
    TransientEngine engine(ckt, topts);
    SettleOptions sopts;
    sopts.period = 100e-9;
    for (const bool settle : {true, false}) {
        exec::CancellationSource source;
        engine.options().cancel = source.token();
        CancelAfterSteps canceller(source, 250);
        engine.add_observer(&canceller);
        if (settle) {
            EXPECT_THROW(settle_cycle_average(engine, out, kGround, sopts), SolveAborted);
        } else {
            EXPECT_THROW(window_average(engine, out, kGround, 1e-6), SolveAborted);
        }
        engine.remove_observer(&canceller);
        engine.options().cancel = exec::CancellationToken{};
        for (int i = 0; i < 100; ++i) engine.step();
    }
    const SettleResult r = settle_cycle_average(engine, out, kGround, sopts);
    EXPECT_TRUE(r.settled);
    EXPECT_NEAR(r.value, 0.5, 5e-3);
}

}  // namespace
}  // namespace rfabm::circuit
