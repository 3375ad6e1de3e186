// Integration tests: injected faults against the hardened measurement
// pipeline.  The contract under test is the ISSUE's acceptance criterion —
// a stuck-open MUX switch must be *reported* (Degraded with a signal-path
// suspect), never a silently wrong Vout; scan-chain faults must Fail with a
// scan-chain suspect; transient faults must heal through retries that are
// bounded and observable in the diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "core/calibration.hpp"
#include "core/measurement.hpp"
#include "faults/campaign.hpp"
#include "faults/circuit_faults.hpp"
#include "faults/jtag_faults.hpp"
#include "lint/flow/program.hpp"
#include "rf/surrogate/store.hpp"
#include "rf/sweep.hpp"

namespace rfabm::faults {
namespace {

/// Shared expensive fixture: one calibrated chip + a coarse power curve.
class FaultPipelineFixture : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        chip_ = new core::RfAbmChip{core::RfAbmChipConfig{}};
        controller_ = new core::MeasurementController(*chip_);
        controller_->open_session();
        core::dc_calibrate(*controller_);
        power_curve_ = new rf::MonotoneCurve(
            core::acquire_power_curve(*controller_, rf::arange(-20.0, 7.0, 3.0), 1.5e9));
    }

    static void TearDownTestSuite() {
        delete power_curve_;
        delete controller_;
        delete chip_;
        power_curve_ = nullptr;
        controller_ = nullptr;
        chip_ = nullptr;
    }

    void SetUp() override { chip_->set_rf(-8.0, 1.5e9); }

    static core::RfAbmChip* chip_;
    static core::MeasurementController* controller_;
    static rf::MonotoneCurve* power_curve_;
};

core::RfAbmChip* FaultPipelineFixture::chip_ = nullptr;
core::MeasurementController* FaultPipelineFixture::controller_ = nullptr;
rf::MonotoneCurve* FaultPipelineFixture::power_curve_ = nullptr;

TEST_F(FaultPipelineFixture, HealthyCheckedMeasurementIsOk) {
    const core::PowerMeasurement m = controller_->measure_power_checked(*power_curve_, -8.0);
    EXPECT_EQ(m.diag.status, core::MeasurementStatus::kOk) << m.diag.to_string();
    EXPECT_EQ(m.diag.suspect, core::SuspectedFault::kNone);
    EXPECT_EQ(m.diag.retries, 0);
    EXPECT_FALSE(m.diag.fallback_used);
    EXPECT_NEAR(m.dbm, -8.0, 0.5) << m.diag.to_string();
}

// The ISSUE's integration criterion: a stuck-open MUX switch must be
// reported Degraded with a signal-path suspect — not a silently wrong Vout.
TEST_F(FaultPipelineFixture, StuckOpenMuxSwitchIsDegradedNotSilent) {
    StuckSwitchFault fault("stuckopen:MUX4.out_minus",
                           chip_->mux().switch_for(core::SelectBit::kOutMinusToAb2),
                           circuit::SwitchFault::kStuckOpen);
    fault.arm();
    const core::PowerMeasurement m = controller_->measure_power_checked(*power_curve_, -8.0);
    fault.disarm();

    EXPECT_EQ(m.diag.status, core::MeasurementStatus::kDegraded) << m.diag.to_string();
    EXPECT_EQ(m.diag.suspect, core::SuspectedFault::kSignalPath) << m.diag.to_string();
    EXPECT_FALSE(m.diag.detail.empty());
    // Bounded retries, all of them recorded.
    EXPECT_EQ(m.diag.retries, controller_->options().retry.max_retries);

    // And the pipeline heals once the fault is gone.
    const core::PowerMeasurement healthy =
        controller_->measure_power_checked(*power_curve_, -8.0);
    EXPECT_EQ(healthy.diag.status, core::MeasurementStatus::kOk) << healthy.diag.to_string();
    EXPECT_NEAR(healthy.dbm, -8.0, 0.5);
}

TEST_F(FaultPipelineFixture, StuckTdoFailsWithScanChainSuspect) {
    StuckLineFault fault("stuck0:TDO", chip_->tap_driver(), StuckLineFault::Line::kTdo,
                         false);
    fault.arm();
    const core::PowerMeasurement m = controller_->measure_power_checked(*power_curve_, -8.0);
    fault.disarm();

    EXPECT_EQ(m.diag.status, core::MeasurementStatus::kFailed) << m.diag.to_string();
    EXPECT_EQ(m.diag.suspect, core::SuspectedFault::kScanChain);
    // Retries are bounded by the policy and observable, with backoff applied.
    EXPECT_EQ(m.diag.retries, controller_->options().retry.max_retries);
    EXPECT_GT(m.diag.backoff_s_total, 0.0);
}

TEST_F(FaultPipelineFixture, TckGlitchBurstHealsThroughRetry) {
    TckGlitchFault fault("burst:TCK", chip_->tap_driver(), TckGlitchConfig{.burst_edges = 60});
    fault.arm();
    const core::PowerMeasurement m = controller_->measure_power_checked(*power_curve_, -8.0);
    fault.disarm();

    // The burst desynchronizes at least the first attempt; a later attempt
    // (after the burst is spent) succeeds -> Degraded with retries recorded.
    EXPECT_EQ(m.diag.status, core::MeasurementStatus::kDegraded) << m.diag.to_string();
    EXPECT_GE(m.diag.retries, 1);
    EXPECT_LE(m.diag.retries, controller_->options().retry.max_retries);
    EXPECT_NEAR(m.dbm, -8.0, 0.5) << m.diag.to_string();
}

TEST_F(FaultPipelineFixture, StuckSelectBusFailsWithSelectPathSuspect) {
    StuckLineFault fault("stuck1:SEL", chip_->select_bus(), true);
    fault.arm();
    const core::PowerMeasurement m = controller_->measure_power_checked(*power_curve_, -8.0);
    fault.disarm();

    EXPECT_EQ(m.diag.status, core::MeasurementStatus::kFailed) << m.diag.to_string();
    EXPECT_EQ(m.diag.suspect, core::SuspectedFault::kSelectPath);
}

TEST_F(FaultPipelineFixture, VerifyHelpersReportHealthyChip) {
    EXPECT_TRUE(controller_->verify_scan_chain());
    controller_->open_session();
    EXPECT_TRUE(controller_->verify_select(
        core::select_word({core::SelectBit::kDetectorPower})));
    EXPECT_FALSE(controller_->verify_select(
        core::select_word({core::SelectBit::kDetectorPower, core::SelectBit::kFdetToAb1})));
}

TEST_F(FaultPipelineFixture, CampaignDetectsAllAndGradesBaselineOk) {
    FaultCampaign campaign(*controller_, *power_curve_, {-8.0, 1.5e9});
    campaign.add(std::make_unique<StuckSwitchFault>(
        "stuckopen:MUX4.out_minus",
        chip_->mux().switch_for(core::SelectBit::kOutMinusToAb2),
        circuit::SwitchFault::kStuckOpen));
    campaign.add(std::make_unique<StuckLineFault>(
        "stuck0:TDO", chip_->tap_driver(), StuckLineFault::Line::kTdo, false));

    const CampaignReport report = campaign.run();
    EXPECT_EQ(report.baseline.status, core::MeasurementStatus::kOk)
        << report.baseline.diagnostics;
    ASSERT_EQ(report.entries.size(), 2u);
    EXPECT_TRUE(report.entries[0].detected) << report.entries[0].diagnostics;
    EXPECT_TRUE(report.entries[1].detected) << report.entries[1].diagnostics;
    EXPECT_EQ(report.silent_count(), 0u);
    EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
    EXPECT_NE(report.to_string().find("coverage: 2/2"), std::string::npos);
}

TEST_F(FaultPipelineFixture, DiagnosticsFormatting) {
    EXPECT_STREQ(core::to_string(core::MeasurementStatus::kDegraded), "Degraded");
    EXPECT_STREQ(core::to_string(core::SuspectedFault::kScanChain), "scan-chain");
    core::MeasurementDiagnostics d;
    d.status = core::MeasurementStatus::kDegraded;
    d.suspect = core::SuspectedFault::kSignalPath;
    d.retries = 2;
    d.detail = "whatever happened";
    const std::string s = d.to_string();
    EXPECT_NE(s.find("Degraded"), std::string::npos) << s;
    EXPECT_NE(s.find("signal-path"), std::string::npos) << s;
    EXPECT_NE(s.find("whatever happened"), std::string::npos) << s;
}

// --- every branch of the checked read, on both detectors ---------------------
//
// Each test builds a fresh chip carrying the suite's DC calibration, so a
// finding (volts included) does not depend on which tests ran before it in
// the same process.  Power reads stay at +4 dBm and above: below the FVC
// threshold the stopped converter clock can leave Fdet.vout running away,
// and that leaks through the open Fdet -> AB1 switch into the bus-isolation
// check (see ROADMAP item 4).  Stopped-clock frequency reads pin only their
// verdict, never their volts or GHz.

enum class Quantity { kPower, kFrequency };

/// The quantity-independent outcome of one checked read.
struct CheckedOutcome {
    core::MeasurementDiagnostics diag;
    double value = 0.0;  ///< dBm or GHz
    bool valid = true;   ///< FrequencyMeasurement::valid (power: always true)
};

class CheckedReadFixture : public ::testing::Test {
  protected:
    static void SetUpTestSuite() {
        core::RfAbmChip chip{core::RfAbmChipConfig{}};
        core::MeasurementController controller(chip);
        controller.open_session();
        calibration_ = new core::DcCalibration(core::dc_calibrate(controller));
        power_curve_ = new rf::MonotoneCurve(
            core::acquire_power_curve(controller, rf::arange(-20.0, 6.0, 6.5), 1.5e9));
        freq_curve_ = new rf::MonotoneCurve(
            core::acquire_frequency_curve(controller, rf::arange(0.9, 2.1, 0.3), 6.0));
    }

    static void TearDownTestSuite() {
        delete freq_curve_;
        delete power_curve_;
        delete calibration_;
        freq_curve_ = nullptr;
        power_curve_ = nullptr;
        calibration_ = nullptr;
    }

    /// A fresh calibrated chip under @p options, driven at @p dbm, 1.5 GHz.
    void start(core::MeasureOptions options = {}, double dbm = 6.0) {
        controller_.reset();
        chip_ = std::make_unique<core::RfAbmChip>(core::RfAbmChipConfig{});
        controller_ = std::make_unique<core::MeasurementController>(*chip_, options);
        controller_->open_session();
        controller_->apply_tune_p(calibration_->tune_p.bench_volts);
        controller_->apply_tune_f(calibration_->tune_f.bench_volts);
        chip_->set_rf(dbm, 1.5e9);
    }

    /// One checked read of @p quantity on the RF path.
    CheckedOutcome read(Quantity quantity, std::optional<double> expected = std::nullopt) {
        if (quantity == Quantity::kPower) {
            const core::PowerMeasurement m =
                controller_->measure_power_checked(*power_curve_, expected);
            return {m.diag, m.dbm, true};
        }
        const core::FrequencyMeasurement m =
            controller_->measure_frequency_checked(*freq_curve_, false, expected);
        return {m.diag, m.ghz, m.valid};
    }

    circuit::Switch& mux_switch(core::SelectBit bit) { return chip_->mux().switch_for(bit); }

    static core::DcCalibration* calibration_;
    static rf::MonotoneCurve* power_curve_;
    static rf::MonotoneCurve* freq_curve_;
    std::unique_ptr<core::RfAbmChip> chip_;
    std::unique_ptr<core::MeasurementController> controller_;
};

core::DcCalibration* CheckedReadFixture::calibration_ = nullptr;
rf::MonotoneCurve* CheckedReadFixture::power_curve_ = nullptr;
rf::MonotoneCurve* CheckedReadFixture::freq_curve_ = nullptr;

/// The same case on both detectors.
class CheckedBranchFixture : public CheckedReadFixture,
                             public ::testing::WithParamInterface<Quantity> {
  protected:
    CheckedOutcome read(std::optional<double> expected = std::nullopt) {
        return CheckedReadFixture::read(GetParam(), expected);
    }

    /// @p power when the test reads power, else @p frequency.
    template <class T>
    T per_quantity(T power, T frequency) const {
        return GetParam() == Quantity::kPower ? power : frequency;
    }
};

TEST_P(CheckedBranchFixture, HealthyReadIsOk) {
    start();
    const CheckedOutcome m = read(per_quantity(6.0, 1.5));
    EXPECT_EQ(m.diag.to_string(), "Ok (suspect: none, retries: 0, sessions: 1)");
    EXPECT_TRUE(m.valid);
    EXPECT_NEAR(m.value, per_quantity(6.0, 1.5), per_quantity(0.5, 0.02));
}

TEST_P(CheckedBranchFixture, StuckOpenRouteIsDegradedNotSilent) {
    start();
    StuckSwitchFault fault(
        "stuckopen", mux_switch(per_quantity(core::SelectBit::kOutMinusToAb2,
                                             core::SelectBit::kFdetToAb1)),
        circuit::SwitchFault::kStuckOpen);
    fault.arm();
    const CheckedOutcome m = read();
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(), per_quantity<std::string>(
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
                  "ATAP pin liveness check failed (v(AT1) = 1.98749 V, v(AT2) = 0.0603327 V)",
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
                  "Vout = 0.0578436 V outside calibration range [0.953946, 2.20145] V"));
    EXPECT_EQ(m.valid, per_quantity(true, false));  // power has no validity flag
}

TEST_P(CheckedBranchFixture, StuckClosedRouteFailsBusIsolation) {
    // Reading power, the FVC output's route stays closed; reading frequency,
    // the power detector's out+ route does.
    start();
    StuckSwitchFault fault(
        "stuckclosed", mux_switch(per_quantity(core::SelectBit::kFdetToAb1,
                                               core::SelectBit::kOutPlusToAb1)),
        circuit::SwitchFault::kStuckClosed);
    fault.arm();
    const CheckedOutcome m = read();
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(), per_quantity<std::string>(
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns, "
                  "fallback: extended settle window): analog bus not isolated when muted "
                  "(v(AT1) = 1.33045 V, v(AT2) = 0.0618822 V): switch stuck closed?",
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
                  "analog bus not isolated when muted (v(AT1) = 1.9879 V, v(AT2) = "
                  "0.0612263 V): switch stuck closed?"));
}

TEST_P(CheckedBranchFixture, ExpectedStimulusMismatchIsDegraded) {
    start();
    const CheckedOutcome m = read(per_quantity(-4.0, 1.9));
    EXPECT_EQ(m.diag.to_string(), per_quantity<std::string>(
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
                  "measured 5.93126 dBm deviates from expected -4 dBm (tolerance 5.2 dB)",
                  "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
                  "measured 1.50084 GHz deviates from expected 1.9 GHz (tolerance 0.24 GHz)"));
}

TEST_P(CheckedBranchFixture, StuckTdoFailsWithScanChainSuspect) {
    start();
    StuckLineFault fault("stuck0:TDO", chip_->tap_driver(), StuckLineFault::Line::kTdo,
                         false);
    fault.arm();
    const CheckedOutcome m = read();
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(),
              "Failed (suspect: scan-chain, retries: 2, sessions: 0, backoff: 150 ns): "
              "IDCODE readback mismatch");
    EXPECT_EQ(m.valid, per_quantity(true, false));  // power has no validity flag
}

TEST_P(CheckedBranchFixture, TckGlitchBurstHealsThroughRetry) {
    start();
    TckGlitchFault fault("burst:TCK", chip_->tap_driver(), TckGlitchConfig{.burst_edges = 60});
    fault.arm();
    const CheckedOutcome m = read();
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(), "Degraded (suspect: scan-chain, retries: 1, sessions: 1, backoff: 50 ns): "
              "IDCODE readback mismatch");
    EXPECT_TRUE(m.valid);
}

TEST_P(CheckedBranchFixture, StuckSelectLineFailsWithSelectPathSuspect) {
    start();
    StuckLineFault fault("stuck1:SEL", chip_->select_bus(), true);
    fault.arm();
    const CheckedOutcome m = read();
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(),
              "Failed (suspect: select-path, retries: 2, sessions: 3, backoff: 150 ns): "
              "select-bus readback mismatch");
}

TEST_P(CheckedBranchFixture, ShortWindowBudgetFailsNonSettling) {
    // Two windows, four on the fallback: both below the five a settle needs.
    core::MeasureOptions options;
    options.max_windows = 2;
    start(options);
    const CheckedOutcome m = read();
    EXPECT_EQ(m.diag.to_string(),
              std::string("Failed (suspect: non-settling, retries: 2, sessions: 3, "
                          "backoff: 150 ns): ") +
                  per_quantity("DC", "FVC") + " read did not settle within the window budget");
    EXPECT_EQ(m.valid, per_quantity(true, false));  // power has no validity flag
}

INSTANTIATE_TEST_SUITE_P(Quantities, CheckedBranchFixture,
                         ::testing::Values(Quantity::kPower, Quantity::kFrequency),
                         [](const ::testing::TestParamInfo<Quantity>& info) {
                             return info.param == Quantity::kPower ? "power" : "frequency";
                         });

// --- branches only the frequency read has ---------------------------------

TEST_F(CheckedReadFixture, FrequencyStoppedFvcClockIsDegradedSignalPath) {
    start(core::MeasureOptions{}, -7.0);
    const CheckedOutcome m = read(Quantity::kFrequency);
    EXPECT_EQ(m.diag.to_string(),
              "Degraded (suspect: signal-path, retries: 2, sessions: 3, backoff: 150 ns): "
              "FVC clock inactive (0 edges during the read)");
    EXPECT_FALSE(m.valid);
}

TEST_F(CheckedReadFixture, FrequencyExtendedWindowFallbackRescuesTheRead) {
    // Three windows cannot settle; the fallback's six can.
    core::MeasureOptions options;
    options.max_windows = 3;
    start(options);
    const CheckedOutcome m = read(Quantity::kFrequency);
    EXPECT_EQ(m.diag.to_string(),
              "Degraded (suspect: none, retries: 0, sessions: 1, fallback: extended settle "
              "window): succeeded after retry");
    EXPECT_TRUE(m.valid);
    // The fallback's windows are twice as long as well as twice as many:
    // with the 8-cycle window kept, the read lands 1.2e-6 GHz lower.
    EXPECT_NEAR(m.value, 1.5008450558933926, 1e-7);
}

TEST_F(CheckedReadFixture, FrequencyLintPreflightRejectsBeforeAnyRead) {
    core::MeasureOptions options;
    options.lint_before_measure = true;
    start(options);
    StuckSwitchFault fault("stuckopen:MUX4.fdet", mux_switch(core::SelectBit::kFdetToAb1),
                           circuit::SwitchFault::kStuckOpen);
    fault.arm();
    const CheckedOutcome m = read(Quantity::kFrequency);
    fault.disarm();
    EXPECT_EQ(m.diag.to_string(), "Failed (suspect: config-lint, retries: 0, sessions: 1): switch 'MUX4.fdet' "
              "is stuck open and ignores its control input [erc-device-fault]");
    EXPECT_FALSE(m.valid);
}

TEST_F(CheckedReadFixture, FrequencyFlowAdmissionRejectsBeforeTheTap) {
    // The program reads the frequency detector with detector power off.
    lint::flow::CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "00000100")
        .calibrate(0)
        .measure(0, lint::flow::Detector::kFrequency);
    core::MeasureOptions options;
    options.admission_program = &program;
    start(options);
    const std::uint64_t tck = chip_->tap_driver().tck_count();
    const CheckedOutcome m = read(Quantity::kFrequency);
    EXPECT_EQ(m.diag.to_string(), "Failed (suspect: config-lint, retries: 0, sessions: 0): step 5 (measure die 0 "
              "freq): reads the freq detector while detector power is latched off "
              "[flow-unpowered-read]");
    EXPECT_EQ(chip_->tap_driver().tck_count(), tck);
    EXPECT_FALSE(m.valid);
}

TEST_F(CheckedReadFixture, FrequencyFinPathNeverConsultsTheSurrogate) {
    // The surrogate key describes the RF input; a fin read must neither ask
    // the store nor train it, while the same read on the RF path does both.
    rf::surrogate::SurrogateStore store;
    core::MeasureOptions options;
    options.surrogate.store = &store;
    start(options);
    chip_->set_fin(8.0, 180e6);
    const core::FrequencyMeasurement fin =
        controller_->measure_frequency_checked(*freq_curve_, /*use_fin=*/true);
    EXPECT_EQ(fin.diag.status, core::MeasurementStatus::kOk) << fin.diag.to_string();
    EXPECT_EQ(store.counters().misses, 0u);
    EXPECT_EQ(store.counters().observed, 0u);

    chip_->fin_off();
    const core::FrequencyMeasurement rf = controller_->measure_frequency_checked(*freq_curve_);
    EXPECT_EQ(rf.diag.status, core::MeasurementStatus::kOk) << rf.diag.to_string();
    EXPECT_EQ(store.counters().misses, 1u);
    EXPECT_EQ(store.counters().observed, 1u);
}

}  // namespace
}  // namespace rfabm::faults
