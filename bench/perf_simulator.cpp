// google-benchmark micro-benchmarks of the simulation substrate: the costs
// that determine how fast the figure harnesses run.
#include <benchmark/benchmark.h>

#include "circuit/dc.hpp"
#include "circuit/devices/mosfet.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/matrix.hpp"
#include "circuit/mna.hpp"
#include "circuit/newton.hpp"
#include "circuit/transient.hpp"
#include "core/chip.hpp"
#include "core/measurement.hpp"
#include "jtag/tap.hpp"

namespace {

using namespace rfabm;
using circuit::Circuit;
using circuit::kGround;
using circuit::NodeId;

// ---------------------------------------------------------------- LU solve

void BM_LuSolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    circuit::DenseMatrix<double> a0(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a0(i, j) = i == j ? 4.0 : 1.0 / (1.0 + i + j);
    }
    std::vector<double> b0(n, 1.0);
    for (auto _ : state) {
        circuit::DenseMatrix<double> a = a0;
        std::vector<double> b = b0;
        circuit::lu_solve_in_place(a, b);
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// ----------------------------------------------------------- MOSFET eval

void BM_MosfetEvaluate(benchmark::State& state) {
    circuit::Mosfet m("M", 1, 2, 3);
    double vgs = 0.4;
    double acc = 0.0;
    for (auto _ : state) {
        vgs = vgs > 1.2 ? 0.4 : vgs + 1e-3;
        acc += m.evaluate(vgs, 1.0).id;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosfetEvaluate);

// ------------------------------------------------------ DC operating point

void BM_DcOperatingPoint(benchmark::State& state) {
    Circuit ckt;
    const NodeId vdd = ckt.node("vdd");
    ckt.add<circuit::VSource>("VDD", vdd, kGround, circuit::Waveform::dc(2.5));
    // A chain of common-source stages: nonlinear, multi-node.
    NodeId in = ckt.node("in");
    ckt.add<circuit::VSource>("VIN", in, kGround, circuit::Waveform::dc(0.8));
    for (int i = 0; i < 6; ++i) {
        const NodeId out = ckt.node("o" + std::to_string(i));
        ckt.add<circuit::Resistor>("R" + std::to_string(i), vdd, out, 5e3);
        ckt.add<circuit::Mosfet>("M" + std::to_string(i), out, in, kGround);
        in = out;
    }
    for (auto _ : state) {
        const auto r = circuit::solve_dc(ckt);
        benchmark::DoNotOptimize(r.solution.raw().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcOperatingPoint)->MinTime(0.2);

// ------------------------------------------------------- transient stepping

void BM_TransientStepRcLadder(benchmark::State& state) {
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.add<circuit::VSource>("V", in, kGround, circuit::Waveform::sine(0.0, 1.0, 1e8));
    NodeId prev = in;
    for (int i = 0; i < 10; ++i) {
        const NodeId n = ckt.node("n" + std::to_string(i));
        ckt.add<circuit::Resistor>("R" + std::to_string(i), prev, n, 1e3);
        ckt.add<circuit::Capacitor>("C" + std::to_string(i), n, kGround, 1e-12);
        prev = n;
    }
    circuit::TransientOptions topts;
    topts.dt = 0.1e-9;
    circuit::TransientEngine engine(ckt, topts);
    engine.init();
    for (auto _ : state) engine.step();
    state.SetItemsProcessed(state.iterations());
    state.counters["ns_simulated"] =
        benchmark::Counter(static_cast<double>(state.iterations()) * 0.1);
}
BENCHMARK(BM_TransientStepRcLadder);

// One Newton iteration on the real chip: assemble, then solve, at
// consecutive states of a running -7 dBm power read (a ring of 64 engine
// solutions, one per iteration).  Arg 0 is newton_iterate's path: assemble()
// through the system's kept plan, re-stamping the per-step devices on every
// third state (a power read averages ~2.7 Newton iterations per step), then
// MnaSystem::solve, which re-eliminates only the cone of the nonlinear
// entries; arg 1 resets and stamps every device without marking the
// nonlinear entries, so every solve takes the full sparse replay; arg 2
// solves arg 1's assembled system with the dense lu_solve_in_place
// reference.
void BM_ChipNewtonIteration(benchmark::State& state) {
    const auto mode = state.range(0);
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    core::MeasurementController ctl(chip);
    ctl.open_session();
    chip.set_rf(-7.0, 1.5e9);
    circuit::TransientEngine& engine = chip.engine();
    engine.run_for(10e-9);
    std::vector<circuit::Solution> states;
    for (int i = 0; i < 64; ++i) {
        engine.step();
        states.push_back(engine.solution());
    }
    Circuit& ckt = chip.circuit();
    circuit::StampContext ctx;
    ctx.mode = circuit::AnalysisMode::kTransient;
    ctx.dt = engine.options().dt;
    ctx.time = engine.time() + ctx.dt;
    ctx.method = engine.options().method;
    ctx.gmin = engine.options().gmin;
    circuit::MnaSystem sys;
    std::vector<double> x;
    std::size_t next = 0;
    for (auto _ : state) {
        ctx.x = &states[next];
        const bool step_start = next % 3 == 0;
        next = (next + 1) % states.size();
        if (mode == 0) {
            circuit::assemble(ckt, sys, ctx, 0.0, step_start);
            sys.solve(x);
        } else {
            sys.reset(ckt.num_nodes(), ckt.num_branches());
            for (const auto& dev : ckt.devices()) dev->stamp(sys, ctx);
            if (mode == 2) {
                x = sys.rhs();
                circuit::lu_solve_in_place(sys.matrix(), x);
            } else {
                sys.solve(x);
            }
        }
        benchmark::DoNotOptimize(x.data());
        benchmark::ClobberMemory();
    }
    static constexpr const char* kLabels[] = {"assemble + MnaSystem::solve (newton_iterate)",
                                              "stamp + MnaSystem::solve, full sparse replay",
                                              "stamp + dense lu_solve_in_place"};
    state.SetLabel(kLabels[mode]);
    state.SetItemsProcessed(state.iterations());
    state.counters["unknowns"] = static_cast<double>(sys.dimension());
    if (mode != 2) {
        state.counters["refreshed_frac"] = static_cast<double>(sys.lu().refreshes()) /
                                           static_cast<double>(sys.lu().solves());
    }
}
BENCHMARK(BM_ChipNewtonIteration)->Arg(0)->Arg(1)->Arg(2);

void BM_TransientStepFullChip(benchmark::State& state) {
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    core::MeasurementController ctl(chip);
    ctl.open_session();
    chip.set_rf(0.0, 1.5e9);
    chip.engine().run_for(10e-9);
    for (auto _ : state) chip.engine().step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransientStepFullChip)->MinTime(0.2);

// ----------------------------------------------------------------- 1149.x

void BM_TapBoundaryScan(benchmark::State& state) {
    jtag::TapController tap(0x1);
    jtag::BoundaryRegister boundary;
    for (int i = 0; i < 64; ++i) {
        boundary.add_cell({"c" + std::to_string(i), nullptr, nullptr});
    }
    tap.route(jtag::Instruction::kSamplePreload, &boundary);
    jtag::TapDriver drv(tap);
    drv.load(jtag::Instruction::kSamplePreload);
    const std::vector<bool> bits(64, true);
    for (auto _ : state) {
        const auto out = drv.scan_dr(bits);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TapBoundaryScan);

void BM_SerialSelectWrite(benchmark::State& state) {
    jtag::SerialSelectBus bus(8);
    std::uint8_t w = 0;
    for (auto _ : state) bus.write_word(++w, 8);
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SerialSelectWrite);

// -------------------------------------------------- end-to-end measurement

void BM_PowerMeasurement(benchmark::State& state) {
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    core::MeasurementController ctl(chip);
    ctl.open_session();
    chip.set_rf(-6.0, 1.5e9);
    ctl.measure_power_vout();  // warm up: tare + first settle
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctl.measure_power_vout());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerMeasurement)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
