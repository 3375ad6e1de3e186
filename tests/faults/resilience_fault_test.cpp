// Process-level fault injectors driving the resilience layer: a wedged
// transient solver is reclaimed by the watchdog and triaged as timed-out, and
// the crash-point injector's journal hook fires at the exact record asked for.
#include "faults/process_faults.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/transient.hpp"
#include "exec/resilient.hpp"
#include "support/temp_path.hpp"

namespace rfabm::faults {
namespace {

using namespace std::chrono_literals;
namespace exec = rfabm::exec;
namespace circuit = rfabm::circuit;

/// A trivially healthy RC under sine drive: every transient step converges in
/// a couple of Newton iterations, so any stall is the fault's doing.
struct RcBench {
    RcBench() {
        const circuit::NodeId in = ckt.node("in");
        const circuit::NodeId out = ckt.node("out");
        ckt.add<circuit::VSource>("VIN", in, circuit::kGround,
                                  circuit::Waveform::sine(0.0, 1.0, 1e9));
        ckt.add<circuit::Resistor>("R1", in, out, 1e3);
        ckt.add<circuit::Capacitor>("C1", out, circuit::kGround, 1e-12);
    }
    circuit::Circuit ckt;
};

TEST(HangSolverFaultTest, WatchdogReclaimsWedgedSolveAsTimedOut) {
    std::vector<exec::ResilientChain> chains(1);
    std::atomic<std::uint64_t> hang_count{0};

    exec::ResilientCell cell;
    cell.key = {0, 0, 0};
    cell.compute = [&](const exec::CellAttempt& attempt) -> exec::CellComputeResult {
        RcBench bench;
        circuit::TransientOptions topts;
        topts.dt = 50e-12;
        topts.cancel = attempt.token;
        topts.heartbeat = attempt.heartbeat;
        circuit::TransientEngine engine(bench.ckt, topts);
        HangSolverFault fault(engine);
        fault.arm();
        EXPECT_EQ(fault.fault_class(), FaultClass::kHangSolver);
        engine.init();
        // The armed observer wedges after the first accepted step; only the
        // watchdog expiring the attempt's deadline gets us out, and then the
        // next step() throws SolveAborted.
        try {
            engine.run_for(10e-9);
        } catch (...) {
            hang_count.fetch_add(fault.hangs());
            throw;
        }
        exec::CellComputeResult out;  // unreachable while the fault is armed
        out.payload = {engine.v(bench.ckt.node("out"))};
        return out;
    };
    cell.deliver = [](const std::vector<double>&, exec::CellOutcome, bool) {
        FAIL() << "the wedged cell must not deliver";
    };
    chains[0].cells.push_back(std::move(cell));

    exec::CampaignOptions copts;
    copts.jobs = 1;
    exec::ResilienceOptions ropts;
    ropts.cell_timeout = 200ms;  // heartbeat-aware: a stall timeout
    ropts.max_cell_attempts = 1;
    ropts.watchdog.poll_interval = 10ms;
    const exec::ResilientResult result =
        exec::run_resilient_campaign(chains, copts, ropts);

    EXPECT_EQ(result.triage.count(exec::CellOutcome::kTimedOut), 1u);
    EXPECT_GE(result.triage.watchdog_fires, 1u);
    ASSERT_EQ(result.triage.quarantined_cells.size(), 1u);
    EXPECT_EQ(result.triage.quarantined_cells[0].first, (exec::CellKey{0, 0, 0}));
    EXPECT_GE(hang_count.load(), 1u) << "the fault never actually wedged the solver";
    EXPECT_FALSE(result.triage.clean());
}

TEST(HangSolverFaultTest, DisarmedFaultIsAbsent) {
    RcBench bench;
    circuit::TransientOptions topts;
    topts.dt = 50e-12;
    circuit::TransientEngine engine(bench.ckt, topts);
    HangSolverFault fault(engine, 1ms);  // bounded even if armed by mistake
    // Never armed: the engine must run normally with zero hangs.
    engine.init();
    engine.run_for(5e-9);
    EXPECT_EQ(fault.hangs(), 0u);
    EXPECT_GT(engine.steps_taken(), 0u);
}

TEST(HangSolverFaultTest, MaxHangBoundsAnUnsupervisedWedge) {
    RcBench bench;
    circuit::TransientOptions topts;
    topts.dt = 50e-12;
    circuit::TransientEngine engine(bench.ckt, topts);  // no token, no watchdog
    HangSolverFault fault(engine, 20ms);
    fault.arm();
    engine.init();
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_for(1e-9);  // a few steps, each wedged for up to max_hang
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(fault.hangs(), 1u);
    EXPECT_LT(elapsed, 10s) << "max_hang failed to bound the spin";
    fault.disarm();
}

TEST(CrashPointFaultTest, HookArmsAtTheRequestedRecord) {
    // The SIGKILL itself is exercised by the kill-and-resume integration test
    // (crash_resume_test); here we verify arm/disarm plumbing with a benign
    // hook stand-in by re-pointing the writer's hook after disarm.
    const std::string path = test::temp_path("crashpoint_probe.wal");
    std::remove(path.c_str());
    exec::JournalWriter writer;
    ASSERT_TRUE(writer.open_fresh(path, {}));
    CrashPointFault fault(writer, 3);
    EXPECT_EQ(fault.fault_class(), FaultClass::kCrashPoint);
    EXPECT_NE(fault.describe().find("3"), std::string::npos);
    EXPECT_EQ(std::string(to_string(FaultClass::kCrashPoint)), "crash-point");
    EXPECT_EQ(std::string(to_string(FaultClass::kHangSolver)), "hang-solver");

    // Arm then disarm: the hook slot must be free again, so a test hook sees
    // every append and no SIGKILL happens below the crash threshold.
    fault.arm();
    fault.disarm();
    std::uint64_t seen = 0;
    writer.set_append_hook([&](std::uint64_t appended) { seen = appended; });
    exec::CellRecord record;
    record.key = {0, 0, 0};
    writer.append_cell(record);
    writer.append_cell(record);
    writer.close();
    EXPECT_EQ(seen, 2u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace rfabm::faults
