// The campaign-level program the flow lint interprets.
//
// A CampaignProgram is the *sequence* of scan programs a campaign will play
// against one chain: TAP resets, IR scans, boundary/select payloads and the
// measurement/calibration steps between them: the payload *contents*
// (abstract bits) and the campaign steps (measure, calibrate) that give the
// latched state temporal meaning.
//
// Programs come from three places: the builder API below (tests, the
// measurement admission tier), the text format in parser.hpp (the abm_lint
// --flow CLI, rfabm_campaignd --program), and synthetic generators
// (bench/lint_throughput).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jtag/instructions.hpp"
#include "lint/diagnostics.hpp"
#include "lint/flow/lattice.hpp"

namespace rfabm::lint::flow {

/// Which detector a measure step reads (decides the select routes the flow
/// rules require to be latched).
enum class Detector : std::uint8_t {
    kPower,      ///< Pdet differential pair: out+ -> AB1, out- -> AB2
    kFrequency,  ///< Fdet output -> AB1
};

const char* to_string(Detector detector);

/// One campaign step.
struct FlowOp {
    enum class Kind : std::uint8_t {
        kReset,       ///< TRST*/five-TMS-ones: Test-Logic-Reset, IR := IDCODE
        kIrScan,      ///< shift + Update-IR on every die in the chain
        kAbmScan,     ///< boundary DR scan latching one die's ABM controls
        kSelectScan,  ///< serial select-bus update of one die's .4-MUX word
        kRunTest,     ///< dwell in Run-Test/Idle
        kCalibrate,   ///< DC-calibrate one die's detectors
        kMeasure,     ///< settled detector read on one die
    };

    Kind kind = Kind::kReset;
    std::uint32_t die = 0;          ///< target die (kAbmScan/kSelectScan/kCalibrate/kMeasure)
    std::uint8_t ir = 0;            ///< raw opcode (kIrScan; broadcast to the chain)
    std::array<Tri, kSelectBits> bits{};  ///< payload (kAbmScan uses [0..5])
    Detector detector = Detector::kPower; ///< kMeasure
    std::size_t cycles = 0;         ///< kRunTest
    SourceLoc loc;                  ///< program-file location (parser) or none

    FlowOp() { bits.fill(Tri::kUnknown); }
};

const char* to_string(FlowOp::Kind kind);

/// Human label for step @p index of a program ("step 4 (select die 1)").
std::string step_label(const FlowOp& op, std::size_t index);

/// A campaign program plus the chain it runs against.
struct CampaignProgram {
    ChainTopology chain;
    std::vector<FlowOp> ops;

    // --- builders (each returns *this for chaining) -----------------------
    CampaignProgram& reset();
    CampaignProgram& ir_scan(std::uint8_t opcode);
    CampaignProgram& ir_scan(jtag::Instruction instruction) {
        return ir_scan(jtag::opcode(instruction));
    }
    /// Latch one die's ABM switch controls.  @p bits is six characters of
    /// {0,1,x}, in AbmBit order: SH SL SG SD SB1 SB2.
    CampaignProgram& abm(std::uint32_t die, std::string_view bits);
    /// Latch one die's select word.  @p bits is eight characters of {0,1,x},
    /// MSB first (leftmost char = bit 7, rightmost = bit 0 / out+ -> AB1).
    CampaignProgram& select(std::uint32_t die, std::string_view bits);
    CampaignProgram& run_test(std::size_t cycles);
    CampaignProgram& calibrate(std::uint32_t die);
    CampaignProgram& measure(std::uint32_t die, Detector detector);
};

/// Parse a {0,1,x} bit string into abstract bits.  @p msb_first reverses the
/// character order (select words read like binary numbers, ABM payloads read
/// in switch order).  Returns false on length or character mismatch.
bool parse_bits(std::string_view text, std::size_t width, bool msb_first, Tri* out);

}  // namespace rfabm::lint::flow
