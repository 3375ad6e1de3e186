// 1149.4 program lint: ABM/TBIC switch-state rules driven through injected
// stuck-at defects, and select-word contention rules.
#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "jtag/abm.hpp"
#include "jtag/tbic.hpp"
#include "lint/abm_rules.hpp"

namespace rfabm::lint {
namespace {

using circuit::SwitchFault;
using jtag::AbmSwitch;
using jtag::Instruction;
using jtag::TbicSwitch;

bool has_rule(const Report& report, const std::string& rule) {
    for (const Diagnostic& d : report.diagnostics()) {
        if (d.rule == rule) return true;
    }
    return false;
}

/// An ABM on a scratch circuit, with its own nodes.
struct AbmHarness {
    circuit::Circuit ckt;
    jtag::AnalogBoundaryModule abm;

    AbmHarness()
        : abm("PIN", ckt,
              jtag::AbmNodes{ckt.node("pin"), ckt.node("core"), ckt.node("ab1"), ckt.node("ab2"),
                             ckt.node("vh"), ckt.node("vl"), ckt.node("vg")}) {}
};

struct TbicHarness {
    circuit::Circuit ckt;
    jtag::Tbic tbic;

    TbicHarness()
        : tbic("TBIC", ckt,
               jtag::TbicNodes{ckt.node("at1"), ckt.node("at2"), ckt.node("ab1"), ckt.node("ab2"),
                               ckt.node("vh"), ckt.node("vl")}) {}
};

TEST(AbmLint, HealthyPatternsAreClean) {
    AbmHarness h;
    for (const Instruction i : {Instruction::kIdcode, Instruction::kBypass, Instruction::kProbe,
                                Instruction::kExtest, Instruction::kHighz}) {
        h.abm.apply(i);
        Report r;
        EXPECT_EQ(lint_abm_state(h.abm, r), 0u) << to_string(i) << ":\n" << r.to_text();
    }
}

TEST(AbmLint, StuckOpenSdUnderProbeBreaksMissionPath) {
    AbmHarness h;
    h.abm.apply(Instruction::kProbe);
    h.abm.switch_dev(AbmSwitch::kSD).set_fault(SwitchFault::kStuckOpen);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-mode-mismatch")) << r.to_text();
    EXPECT_EQ(r.diagnostics()[0].device, "PIN");
    h.abm.switch_dev(AbmSwitch::kSD).set_fault(SwitchFault::kNone);
}

TEST(AbmLint, DrivingDuringProbeIsFlagged) {
    AbmHarness h;
    h.abm.apply(Instruction::kProbe);
    h.abm.switch_dev(AbmSwitch::kSH).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-drive-during-probe")) << r.to_text();
}

TEST(AbmLint, ShSlCrowbarIsFlagged) {
    AbmHarness h;
    h.abm.apply(Instruction::kExtest);
    h.abm.switch_dev(AbmSwitch::kSH).set_fault(SwitchFault::kStuckClosed);
    h.abm.switch_dev(AbmSwitch::kSL).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-sh-sl-short")) << r.to_text();
}

TEST(AbmLint, SdNotIsolatedInExtest) {
    AbmHarness h;
    h.abm.apply(Instruction::kExtest);
    h.abm.switch_dev(AbmSwitch::kSD).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-sd-not-isolated")) << r.to_text();
}

TEST(AbmLint, BothBusesIsAWarning) {
    AbmHarness h;
    h.abm.apply(Instruction::kProbe);
    h.abm.switch_dev(AbmSwitch::kSB1).set_fault(SwitchFault::kStuckClosed);
    h.abm.switch_dev(AbmSwitch::kSB2).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-both-buses")) << r.to_text();
    EXPECT_FALSE(r.has_errors()) << r.to_text();
}

TEST(AbmLint, TestSwitchClosedInMissionMode) {
    AbmHarness h;
    h.abm.apply(Instruction::kIdcode);
    h.abm.switch_dev(AbmSwitch::kSB1).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_abm_state(h.abm, r);
    EXPECT_TRUE(has_rule(r, "abm-mode-mismatch")) << r.to_text();
}

TEST(TbicLint, HealthyPatternsAreClean) {
    TbicHarness h;
    h.tbic.apply(Instruction::kProbe);
    for (const jtag::TbicPattern p :
         {jtag::TbicPattern::kIsolate, jtag::TbicPattern::kConnect,
          jtag::TbicPattern::kCharHighLow, jtag::TbicPattern::kCharLowHigh}) {
        h.tbic.set_pattern(p);
        Report r;
        EXPECT_EQ(lint_tbic_state(h.tbic, r), 0u) << r.to_text();
    }
    // Mission mode isolates everything.
    h.tbic.apply(Instruction::kIdcode);
    Report r;
    EXPECT_EQ(lint_tbic_state(h.tbic, r), 0u) << r.to_text();
}

TEST(TbicLint, NotIsolatedInMissionMode) {
    TbicHarness h;
    h.tbic.apply(Instruction::kIdcode);
    h.tbic.switch_dev(TbicSwitch::kS1).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_tbic_state(h.tbic, r);
    EXPECT_TRUE(has_rule(r, "tbic-not-isolated")) << r.to_text();
}

TEST(TbicLint, VhVlShortThroughAt1) {
    TbicHarness h;
    h.tbic.apply(Instruction::kProbe);
    h.tbic.set_pattern(jtag::TbicPattern::kCharHighLow);  // S3 + S6
    h.tbic.switch_dev(TbicSwitch::kS4).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_tbic_state(h.tbic, r);
    EXPECT_TRUE(has_rule(r, "tbic-vh-vl-short")) << r.to_text();
}

TEST(TbicLint, AtapPinsShortedThroughRail) {
    TbicHarness h;
    h.tbic.apply(Instruction::kProbe);
    h.tbic.set_pattern(jtag::TbicPattern::kCharHighLow);  // S3 + S6
    h.tbic.switch_dev(TbicSwitch::kS5).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_tbic_state(h.tbic, r);
    EXPECT_TRUE(has_rule(r, "tbic-at-short")) << r.to_text();
}

TEST(TbicLint, DriveWhileConnectedIsAWarning) {
    TbicHarness h;
    h.tbic.apply(Instruction::kProbe);
    h.tbic.set_pattern(jtag::TbicPattern::kConnect);  // S1 + S2
    h.tbic.switch_dev(TbicSwitch::kS3).set_fault(SwitchFault::kStuckClosed);
    Report r;
    lint_tbic_state(h.tbic, r);
    EXPECT_TRUE(has_rule(r, "tbic-drive-while-connect")) << r.to_text();
}

// --- select-word rules ------------------------------------------------------

SelectBusModel test_model() {
    SelectBusModel model;
    model.name = "mux";
    model.power_bit = 6;
    model.routes = {
        {0, 1, true, "out+ -> AB1"}, {1, 2, true, "out- -> AB2"}, {2, 1, true, "Fdet -> AB1"},
        {3, 2, false, "tuneP <- AB2"}, {4, 2, false, "tuneF <- AB2"}, {5, 1, false, "Ibias <- AB1"},
    };
    return model;
}

TEST(SelectLint, MeasurementWordsAreClean) {
    const SelectBusModel model = test_model();
    for (const std::uint64_t word : {
             (1u << 0) | (1u << 1) | (1u << 6),  // power measurement
             (1u << 2) | (1u << 6),              // frequency measurement
             (1u << 4) | (1u << 6),              // tunef programming
             0u,                                 // everything off
         }) {
        Report r;
        EXPECT_EQ(lint_select_word(model, word, r), 0u) << r.to_text();
    }
}

TEST(SelectLint, TwoDriversOneBusConflict) {
    Report r;
    lint_select_word(test_model(), (1u << 0) | (1u << 2) | (1u << 6), r);
    EXPECT_TRUE(has_rule(r, "select-bus-conflict")) << r.to_text();
}

TEST(SelectLint, DriverAndLoadSameBusConflict) {
    Report r;
    lint_select_word(test_model(), (1u << 0) | (1u << 5) | (1u << 6), r);
    EXPECT_TRUE(has_rule(r, "select-bus-conflict")) << r.to_text();
}

TEST(SelectLint, DoubleLoadIsAWarning) {
    Report r;
    lint_select_word(test_model(), (1u << 3) | (1u << 4) | (1u << 6), r);
    EXPECT_TRUE(has_rule(r, "select-double-load")) << r.to_text();
    EXPECT_FALSE(r.has_errors());
}

TEST(SelectLint, UnpoweredDriverIsAWarning) {
    Report r;
    lint_select_word(test_model(), (1u << 0) | (1u << 1), r);
    EXPECT_TRUE(has_rule(r, "select-unpowered")) << r.to_text();
}

}  // namespace
}  // namespace rfabm::lint
