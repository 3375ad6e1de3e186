// The chip's transient engine through a measurement session, audited at
// every Newton iteration against stamp_devices on a twin chip (see
// tests/support/assembly_audit.hpp): the 1149.4 session set-up (TAP scans
// and tune dwells), .4 MUX select writes, set_rf / rf_off step changes, the
// FVC's logic toggling its switches, and src/faults defects armed and
// disarmed between steps.
#include <gtest/gtest.h>

#include "circuit/devices/defects.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/switch_device.hpp"
#include "core/chip.hpp"
#include "core/measurement.hpp"
#include "core/mux4.hpp"
#include "faults/circuit_faults.hpp"
#include "support/assembly_audit.hpp"

namespace rfabm::faults {
namespace {

using core::SelectBit;

TEST(ChipAssemblyPlan, MatchesStampDevicesThroughASession) {
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    core::RfAbmChip twin{core::RfAbmChipConfig{}};
    auto& bridge =
        chip.circuit().add<circuit::BridgeDefect>("BRIDGE", chip.at1(), chip.at2(), 1e4);
    twin.circuit().add<circuit::BridgeDefect>("BRIDGE", twin.at1(), twin.at2(), 1e4);
    test::AssemblyAudit& audit = test::add_audit(chip.circuit(), twin.circuit());
    core::MeasurementController ctl(chip);
    circuit::TransientEngine& engine = chip.engine();

    ctl.open_session();
    ctl.apply_tune_p(0.5);
    chip.set_rf(-7.0, 1.5e9);
    engine.run_for(3e-9);

    // Route the FVC output to AB1 and drive the prescaler past its
    // hysteresis: the FVC's logic toggles its charge, transfer and reset
    // switches every clock period.
    ctl.set_select(core::select_word({SelectBit::kFdetToAb1, SelectBit::kDetectorPower}));
    chip.set_rf(6.0, 1.5e9);
    const std::uint64_t updates = audit.plan_updates();
    engine.run_for(40e-9);
    EXPECT_GT(audit.plan_updates() - updates, 10u) << "the FVC switches never toggled";

    StuckSwitchFault stuck("stuck", chip.circuit().get<circuit::Switch>("PWRGATE_F"),
                           circuit::SwitchFault::kStuckOpen);
    BridgeFault shorted("bridge", bridge);
    DriftFault drift("drift", chip.circuit().get<circuit::Resistor>("RIBIAS_TRIM"), 1.5);
    for (FaultInjector* fault : std::initializer_list<FaultInjector*>{&stuck, &shorted, &drift}) {
        fault->arm();
        engine.run_for(1e-9);
        fault->disarm();
        engine.run_for(1e-9);
    }

    ctl.set_select(core::select_word({SelectBit::kDetectorPower}));
    chip.rf_off();
    engine.run_for(3e-9);
    chip.set_rf(-3.0, 1.2e9);
    engine.run_for(3e-9);

    EXPECT_EQ(audit.mismatches(), 0) << audit.first_mismatch();
    EXPECT_EQ(audit.unchecked(), 0);
    EXPECT_GT(audit.assemblies_checked(), 10000);
    EXPECT_GT(audit.solutions_checked(), 3000);
}

}  // namespace
}  // namespace rfabm::faults
