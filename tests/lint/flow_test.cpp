// Unit tests for the flow-sensitive scan-program lint: the abstract lattice,
// the campaign-program model and text parser, the interpreter's temporal
// rules (with witness traces), and the incremental FlowLintCache.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "lint/flow/cache.hpp"
#include "lint/flow/interpreter.hpp"
#include "lint/flow/parser.hpp"
#include "support/temp_path.hpp"

namespace rfabm::lint::flow {
namespace {

bool fires(const Report& report, const std::string& rule) {
    for (const auto& diag : report.diagnostics()) {
        if (diag.rule == rule) return true;
    }
    return false;
}

const Diagnostic* find(const Report& report, const std::string& rule) {
    for (const auto& diag : report.diagnostics()) {
        if (diag.rule == rule) return &diag;
    }
    return nullptr;
}

/// A clean single-die campaign: PROBE, route + power, calibrate, read.
CampaignProgram clean_program() {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000011")
        .calibrate(0)
        .measure(0, Detector::kPower);
    return program;
}

TEST(FlowLattice, JoinAndRender) {
    EXPECT_EQ(join(Tri::kOne, Tri::kOne), Tri::kOne);
    EXPECT_EQ(join(Tri::kZero, Tri::kZero), Tri::kZero);
    EXPECT_EQ(join(Tri::kOne, Tri::kZero), Tri::kUnknown);
    EXPECT_EQ(join(Tri::kUnknown, Tri::kOne), Tri::kUnknown);
    EXPECT_EQ(to_char(Tri::kZero), '0');
    EXPECT_EQ(to_char(Tri::kOne), '1');
    EXPECT_EQ(to_char(Tri::kUnknown), 'x');
}

TEST(FlowProgram, ParseBitsConventions) {
    std::array<Tri, kSelectBits> bits{};
    // Select words read MSB first: "01000011" is 0x43 — bits 0, 1 and 6 set.
    ASSERT_TRUE(parse_bits("01000011", kSelectBits, /*msb_first=*/true, bits.data()));
    EXPECT_EQ(bits[0], Tri::kOne);
    EXPECT_EQ(bits[1], Tri::kOne);
    EXPECT_EQ(bits[6], Tri::kOne);
    EXPECT_EQ(bits[7], Tri::kZero);
    // ABM payloads read in switch order: SH SL SG SD SB1 SB2.
    std::array<Tri, kAbmBits> abm{};
    ASSERT_TRUE(parse_bits("10x001", kAbmBits, /*msb_first=*/false, abm.data()));
    EXPECT_EQ(abm[0], Tri::kOne);      // SH
    EXPECT_EQ(abm[2], Tri::kUnknown);  // SG
    EXPECT_EQ(abm[5], Tri::kOne);      // SB2
    EXPECT_FALSE(parse_bits("0100", kSelectBits, true, bits.data()));
    EXPECT_FALSE(parse_bits("0100001?", kSelectBits, true, bits.data()));
}

TEST(FlowInterpreter, CleanProgramIsQuiet) {
    Report report;
    EXPECT_EQ(flow_lint(clean_program(), report), 0u);
    EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(FlowInterpreter, CleanMultiDieCampaignIsQuiet) {
    CampaignProgram program;
    program.chain.dies = 3;
    program.reset().ir_scan(jtag::Instruction::kProbe);
    for (std::uint32_t d = 0; d < 3; ++d) {
        program.select(d, "01000011").calibrate(d).measure(d, Detector::kPower);
        program.select(d, "00000000");  // break before the next die makes
    }
    Report report;
    EXPECT_EQ(flow_lint(program, report), 0u);
    EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(FlowInterpreter, CrowbarWindowAcrossUpdatesFiresWithWitness) {
    // Each update alone looks harmless; only the flow between them closes SH
    // and SL together.  An unspecified payload bit keeps its latched value.
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kExtest)
        .abm(0, "100000")    // SH closed
        .abm(0, "x1xxxx");   // SL closed, SH kept latched
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-crowbar-window");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_EQ(diag->severity, Severity::kError);
    ASSERT_EQ(diag->witness.size(), 2u);
    // The witness cites both latch events, each with its own step.
    EXPECT_NE(diag->witness[0].find("step 3"), std::string::npos);
    EXPECT_NE(diag->witness[1].find("step 4"), std::string::npos);
}

TEST(FlowInterpreter, CrowbarFiresOncePerWindow) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kExtest)
        .abm(0, "110000")
        .abm(0, "11x000");  // still crowbarred, same window: no second fire
    Report report;
    flow_lint(program, report);
    std::size_t count = 0;
    for (const auto& diag : report.diagnostics()) {
        if (diag.rule == "flow-crowbar-window") ++count;
    }
    EXPECT_EQ(count, 1u);
}

TEST(FlowInterpreter, UnknownBitsStayConservativelyQuiet) {
    CampaignProgram program;
    program.reset().ir_scan(jtag::Instruction::kExtest).abm(0, "1x0000");
    Report report;
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-crowbar-window")) << report.to_text();
}

/// Interpret a program written in the text format.
Report lint_text(const std::string& text) {
    CampaignProgram program;
    Report report;
    EXPECT_TRUE(parse_program(text, "t.prog", program, report)) << report.to_text();
    flow_lint(program, report);
    return report;
}

TEST(FlowInterpreter, AbmPayloadUnderBypassLeavesTheLatchesAlone) {
    // The payload meant to open SH goes into the BYPASS register, so SH is
    // still closed when the last update closes SL: a crowbar on silicon.
    const Report report = lint_text(
        "reset\n"
        "irscan EXTEST\n"
        "abm 0 100000\n"
        "irscan BYPASS\n"
        "abm 0 000000\n"
        "irscan EXTEST\n"
        "abm 0 x1xxxx\n");
    const Diagnostic* wrong = find(report, "flow-abm-wrong-register");
    ASSERT_NE(wrong, nullptr) << report.to_text();
    EXPECT_EQ(wrong->severity, Severity::kError);
    EXPECT_EQ(wrong->loc.line, 5u);
    ASSERT_EQ(wrong->witness.size(), 2u);
    EXPECT_NE(wrong->witness[0].find("step 4"), std::string::npos) << wrong->witness[0];
    EXPECT_NE(wrong->witness[0].find("BYPASS"), std::string::npos) << wrong->witness[0];
    const Diagnostic* crowbar = find(report, "flow-crowbar-window");
    ASSERT_NE(crowbar, nullptr) << report.to_text();
    EXPECT_NE(crowbar->witness[0].find("step 3"), std::string::npos) << crowbar->witness[0];
}

TEST(FlowInterpreter, AbmPayloadUnderIdcodeCannotCrowbar) {
    // After a reset IDCODE is latched: both payloads land in IDCODE and
    // neither reaches SH or SL.
    const Report report = lint_text(
        "reset\n"
        "abm 0 100000\n"
        "abm 0 x1xxxx\n");
    EXPECT_FALSE(fires(report, "flow-crowbar-window")) << report.to_text();
    std::size_t wrong = 0;
    for (const auto& diag : report.diagnostics()) {
        if (diag.rule == "flow-abm-wrong-register") ++wrong;
    }
    EXPECT_EQ(wrong, 2u) << report.to_text();
}

TEST(FlowInterpreter, BreakBeforeMakeViolationFires) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kExtest)
        .abm(0, "000010")   // pin on AB1
        .abm(0, "000001");  // straight handoff to AB2
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-break-before-make");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_FALSE(diag->witness.empty());
}

TEST(FlowInterpreter, BreakThenMakeIsQuiet) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kExtest)
        .abm(0, "000010")
        .abm(0, "000000")   // disconnect interval
        .abm(0, "000001");
    Report report;
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-break-before-make")) << report.to_text();
}

TEST(FlowInterpreter, CrossDieBusContentionFires) {
    CampaignProgram program;
    program.chain.dies = 2;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000011")   // die 0 drives AB1 (out+) and AB2 (out-)
        .select(1, "01000100");  // die 1 also drives AB1 (Fdet)
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-bus-contention");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_NE(diag->message.find("AB1"), std::string::npos);
    ASSERT_EQ(diag->witness.size(), 2u);  // one line per latched driver
}

TEST(FlowInterpreter, SequentialBusUseIsQuiet) {
    CampaignProgram program;
    program.chain.dies = 2;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000011")
        .calibrate(0)
        .measure(0, Detector::kPower)
        .select(0, "00000000")   // die 0 releases the buses
        .select(1, "01000011")
        .calibrate(1)
        .measure(1, Detector::kPower);
    Report report;
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-bus-contention")) << report.to_text();
}

TEST(FlowInterpreter, ReadWithoutProbeFires) {
    CampaignProgram program;
    program.reset().select(0, "01000011").calibrate(0).measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-read-before-select");
    ASSERT_NE(diag, nullptr) << report.to_text();
    // Reset latches IDCODE; the message names the offending instruction.
    EXPECT_NE(diag->message.find("IDCODE"), std::string::npos);
}

TEST(FlowInterpreter, ReadBeforeRouteLandsFires) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000001")  // out+ -> AB1 routed, out- -> AB2 missing
        .calibrate(0)
        .measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-read-before-select");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_NE(diag->message.find("out- -> AB2"), std::string::npos);
}

TEST(FlowInterpreter, UnpoweredReadFiresWithProvenance) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "00000011")  // routes land, detector power off
        .calibrate(0)
        .measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-unpowered-read");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_EQ(diag->severity, Severity::kError);
    ASSERT_EQ(diag->witness.size(), 2u);
    EXPECT_NE(diag->witness[0].find("step 3"), std::string::npos);  // the select
    EXPECT_NE(diag->witness[1].find("step 5"), std::string::npos);  // the read
}

TEST(FlowInterpreter, MeasureBeforeCalibrateWarns) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000011")
        .measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-measure-before-calibrate");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_EQ(diag->severity, Severity::kWarning);

    Report relaxed;
    FlowLintOptions options;
    options.check_calibration = false;
    flow_lint(program, relaxed, options);
    EXPECT_FALSE(fires(relaxed, "flow-measure-before-calibrate"));
}

TEST(FlowInterpreter, DeadSelectUpdateWarnsAtTheOverwrittenStep) {
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000100")   // never observed
        .select(0, "01000011")   // overwrites it
        .calibrate(0)
        .measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    const Diagnostic* diag = find(report, "flow-dead-update");
    ASSERT_NE(diag, nullptr) << report.to_text();
    EXPECT_EQ(diag->severity, Severity::kWarning);
    EXPECT_NE(diag->message.find("step 3"), std::string::npos);

    Report relaxed;
    FlowLintOptions options;
    options.check_dead_updates = false;
    flow_lint(program, relaxed, options);
    EXPECT_FALSE(fires(relaxed, "flow-dead-update"));
}

TEST(FlowInterpreter, SingleDieBusReleaseIsNotDead) {
    // Break-before-make on one die: the all-open word between the frequency
    // and the power read opens the Fdet driver and closes none.  The bus sees
    // that release even though the next word overwrites it unobserved.
    CampaignProgram program;
    program.reset()
        .ir_scan(jtag::Instruction::kProbe)
        .select(0, "01000100")
        .calibrate(0)
        .measure(0, Detector::kFrequency)
        .select(0, "00000000")  // release
        .select(0, "01000011")
        .measure(0, Detector::kPower);
    Report report;
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-dead-update")) << report.to_text();
}

TEST(FlowInterpreter, TrailingSelectUpdateIsNotDead) {
    // The next campaign segment may consume a trailing select word; only an
    // overwrite inside the program proves the store dead.
    CampaignProgram program = clean_program();
    program.select(0, "00000000");
    Report report;
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-dead-update")) << report.to_text();
}

TEST(FlowInterpreter, DieOutsideChainFires) {
    CampaignProgram program;
    program.chain.dies = 2;
    program.reset().ir_scan(jtag::Instruction::kProbe).select(5, "01000011");
    Report report;
    flow_lint(program, report);
    EXPECT_TRUE(fires(report, "flow-bad-die")) << report.to_text();
}

TEST(FlowInterpreter, AllFlowRulesAreInTheCatalog) {
    for (const char* rule :
         {"flow-abm-wrong-register", "flow-bad-die", "flow-break-before-make",
          "flow-bus-contention", "flow-crowbar-window", "flow-dead-update",
          "flow-measure-before-calibrate", "flow-parse-error", "flow-read-before-select",
          "flow-unpowered-read"}) {
        EXPECT_TRUE(is_known_rule(rule)) << rule;
    }
}

// --- parser ----------------------------------------------------------------

TEST(FlowParser, ParsesFullProgram) {
    const std::string text =
        "# power measurement round trip\n"
        "chain 2\n"
        "reset\n"
        "irscan PROBE\n"
        "select 0 01000011\n"
        "runtest 100\n"
        "calibrate 0\n"
        "measure 0 power\n"
        "abm 1 000100\n"
        "measure 0 freq\n";
    CampaignProgram program;
    Report report;
    ASSERT_TRUE(parse_program(text, "round.prog", program, report)) << report.to_text();
    EXPECT_EQ(program.chain.dies, 2u);
    ASSERT_EQ(program.ops.size(), 8u);
    EXPECT_EQ(program.ops[0].kind, FlowOp::Kind::kReset);
    EXPECT_EQ(program.ops[1].ir, jtag::opcode(jtag::Instruction::kProbe));
    EXPECT_EQ(program.ops[3].cycles, 100u);
    EXPECT_EQ(program.ops[6].die, 1u);
    EXPECT_EQ(program.ops[7].detector, Detector::kFrequency);
    EXPECT_EQ(program.ops[7].loc.line, 10u);
    EXPECT_EQ(program.ops[7].loc.file, "round.prog");
}

TEST(FlowParser, ReportsErrorsWithLocationAndContinues) {
    const std::string text =
        "reset\n"
        "frobnicate 0\n"
        "measure 0 sideways\n"
        "irscan PROBE\n";
    CampaignProgram program;
    Report report;
    EXPECT_FALSE(parse_program(text, "bad.prog", program, report));
    ASSERT_EQ(report.error_count(), 2u) << report.to_text();
    EXPECT_EQ(report.diagnostics()[0].rule, "flow-parse-error");
    EXPECT_EQ(report.diagnostics()[0].loc.line, 2u);
    EXPECT_EQ(report.diagnostics()[1].loc.line, 3u);
    // The good lines still landed.
    EXPECT_EQ(program.ops.size(), 2u);
}

TEST(FlowParser, InlineSuppressionDirectiveSilencesFlowRule) {
    const std::string text =
        "reset\n"
        "irscan PROBE\n"
        "select 0 00000011\n"
        "calibrate 0\n"
        "measure 0 power  # abm-lint: disable=flow-unpowered-read\n";
    CampaignProgram program;
    Report report;
    ASSERT_TRUE(parse_program(text, "supp.prog", program, report));
    flow_lint(program, report);
    EXPECT_FALSE(fires(report, "flow-unpowered-read")) << report.to_text();
    EXPECT_EQ(report.suppressed_count(), 1u);
}

TEST(FlowParser, WholeLineDirectiveGuardsNextLineAndFileDirectiveGuardsAll) {
    const std::string guarded =
        "reset\n"
        "irscan PROBE\n"
        "select 0 00000011\n"
        "calibrate 0\n"
        "# abm-lint: disable=flow-unpowered-read\n"
        "measure 0 power\n";
    CampaignProgram p1;
    Report r1;
    ASSERT_TRUE(parse_program(guarded, "g.prog", p1, r1));
    flow_lint(p1, r1);
    EXPECT_FALSE(fires(r1, "flow-unpowered-read")) << r1.to_text();

    const std::string filewide =
        "# abm-lint: disable-file=flow-unpowered-read,flow-measure-before-calibrate\n"
        "reset\n"
        "irscan PROBE\n"
        "select 0 00000011\n"
        "measure 0 power\n";
    CampaignProgram p2;
    Report r2;
    ASSERT_TRUE(parse_program(filewide, "f.prog", p2, r2));
    flow_lint(p2, r2);
    EXPECT_TRUE(r2.empty()) << r2.to_text();
    EXPECT_EQ(r2.suppressed_count(), 2u);
}

// --- JSON round trip -------------------------------------------------------

/// Pull every occurrence of a quoted string field out of a JSON document.
/// (Good enough for the engine's own escaping-free field values.)
std::vector<std::string> json_fields(const std::string& json, const std::string& key) {
    std::vector<std::string> values;
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        if (json[pos] != '"') continue;
        const std::size_t end = json.find('"', pos + 1);
        values.push_back(json.substr(pos + 1, end - pos - 1));
        pos = end;
    }
    return values;
}

TEST(FlowJson, RoundTripPreservesRuleIdsLocationsWitnessesAndFixits) {
    const std::string text =
        "reset\n"
        "irscan PROBE\n"
        "select 0 00000011\n"
        "measure 0 power\n";
    CampaignProgram program;
    Report report;
    ASSERT_TRUE(parse_program(text, "rt.prog", program, report));
    flow_lint(program, report);
    report.sort();
    ASSERT_FALSE(report.empty());
    const std::string json = report.to_json();

    // Emit -> (re)parse: the same rule ids, in the same order...
    const std::vector<std::string> rules = json_fields(json, "rule");
    ASSERT_EQ(rules.size(), report.diagnostics().size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rules[i], report.diagnostics()[i].rule);
    }
    // ... the same locations ...
    const std::vector<std::string> files = json_fields(json, "file");
    ASSERT_EQ(files.size(), report.diagnostics().size());
    for (const std::string& file : files) EXPECT_EQ(file, "rt.prog");
    for (const auto& diag : report.diagnostics()) {
        EXPECT_NE(json.find("\"line\":" + std::to_string(diag.loc.line)),
                  std::string::npos);
    }
    // ... and every witness line and fix-it hint, as JSON string arrays.
    for (const auto& diag : report.diagnostics()) {
        for (const std::string& step : diag.witness) {
            EXPECT_NE(json.find(step), std::string::npos) << step;
        }
        if (!diag.fixit.empty()) {
            EXPECT_NE(json.find(diag.fixit), std::string::npos);
        }
    }
    EXPECT_NE(json.find("\"witness\":["), std::string::npos);
}

TEST(FlowJson, SuppressedFlowDiagnosticsStayOutOfJson) {
    const std::string text =
        "# abm-lint: disable-file=flow-unpowered-read,flow-measure-before-calibrate\n"
        "reset\n"
        "irscan PROBE\n"
        "select 0 00000011\n"
        "measure 0 power\n";
    CampaignProgram program;
    Report report;
    ASSERT_TRUE(parse_program(text, "s.prog", program, report));
    flow_lint(program, report);
    const std::string json = report.to_json();
    EXPECT_EQ(json.find("flow-unpowered-read"), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\":2"), std::string::npos) << json;
}

// --- cache -----------------------------------------------------------------

TEST(FlowCache, FingerprintIsStableAndSensitive) {
    const CampaignProgram a = clean_program();
    const CampaignProgram b = clean_program();
    EXPECT_EQ(flow_fingerprint(a), flow_fingerprint(b));

    CampaignProgram wider = clean_program();
    wider.chain.dies = 2;
    EXPECT_NE(flow_fingerprint(a), flow_fingerprint(wider));

    CampaignProgram edited = clean_program();
    edited.ops[2].bits[6] = Tri::kZero;  // power gate flipped
    EXPECT_NE(flow_fingerprint(a), flow_fingerprint(edited));

    FlowLintOptions relaxed;
    relaxed.check_calibration = false;
    EXPECT_NE(flow_fingerprint(a), flow_fingerprint(a, relaxed));
}

TEST(FlowCache, ReplaysVerdictOnHit) {
    CampaignProgram bad;
    bad.reset().ir_scan(jtag::Instruction::kProbe).select(0, "00000011").calibrate(0)
        .measure(0, Detector::kPower);
    FlowLintCache cache;
    Report first;
    const std::size_t offered = cache.admit(bad, first);
    EXPECT_GT(offered, 0u);
    Report second;
    EXPECT_EQ(cache.admit(bad, second), offered);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    ASSERT_EQ(second.diagnostics().size(), first.diagnostics().size());
    for (std::size_t i = 0; i < first.diagnostics().size(); ++i) {
        EXPECT_EQ(second.diagnostics()[i].rule, first.diagnostics()[i].rule);
        EXPECT_EQ(second.diagnostics()[i].witness, first.diagnostics()[i].witness);
    }
}

TEST(FlowCache, SuppressionsApplyAtReplayNotAtCaching) {
    CampaignProgram bad;
    bad.reset().ir_scan(jtag::Instruction::kProbe).select(0, "00000011").calibrate(0)
        .measure(0, Detector::kPower);
    FlowLintCache cache;
    Report muted;
    muted.suppress_rule("flow-unpowered-read");
    const std::size_t offered = cache.admit(bad, muted);
    EXPECT_GT(offered, 0u);            // the verdict still carries the finding
    EXPECT_FALSE(muted.has_errors());  // ... but this caller suppressed it
    // A later caller WITHOUT the suppression still sees the error: the
    // suppression was not laundered into the cache.
    Report strict;
    cache.admit(bad, strict);
    EXPECT_TRUE(strict.has_errors());
}

TEST(FlowCache, CleanTicketsPersistAcrossLoadSave) {
    const CampaignProgram program = clean_program();
    const std::string path = test::temp_path("flow_cache.lintcache");
    {
        FlowLintCache cache;
        Report report;
        EXPECT_EQ(cache.admit(program, report), 0u);
        EXPECT_TRUE(cache.save(path));
    }
    FlowLintCache reloaded;
    ASSERT_TRUE(reloaded.load(path));
    EXPECT_TRUE(reloaded.has_clean_ticket(flow_fingerprint(program)));
    Report report;
    EXPECT_EQ(reloaded.admit(program, report), 0u);
    EXPECT_EQ(reloaded.stats().hits, 1u);
    EXPECT_EQ(reloaded.stats().misses, 0u);
    std::remove(path.c_str());
}

TEST(FlowCache, DirtyVerdictsAreNeverPersisted) {
    CampaignProgram bad;
    bad.reset().ir_scan(jtag::Instruction::kProbe).select(0, "00000011").calibrate(0)
        .measure(0, Detector::kPower);
    const std::string path = test::temp_path("flow_cache_dirty.lintcache");
    {
        FlowLintCache cache;
        Report report;
        EXPECT_GT(cache.admit(bad, report), 0u);
        EXPECT_TRUE(cache.save(path));
    }
    FlowLintCache reloaded;
    ASSERT_TRUE(reloaded.load(path));
    EXPECT_FALSE(reloaded.has_clean_ticket(flow_fingerprint(bad)));
    // Re-admission in the new process re-interprets and re-fires.
    Report report;
    EXPECT_GT(reloaded.admit(bad, report), 0u);
    EXPECT_EQ(reloaded.stats().misses, 1u);
    std::remove(path.c_str());
}

TEST(FlowCache, MalformedTicketFileIsRejected) {
    const std::string path = test::temp_path("flow_cache_bad.lintcache");
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("not a lintcache\n12ab\n", f);
        std::fclose(f);
    }
    FlowLintCache cache;
    EXPECT_FALSE(cache.load(path));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace rfabm::lint::flow
