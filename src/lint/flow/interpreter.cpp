#include "lint/flow/interpreter.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "jtag/tap_state.hpp"

namespace rfabm::lint::flow {

namespace {

using jtag::TapState;

/// Select-word routing semantics the flow rules need (mirrors the layout in
/// core/mux4.hpp; lint sits below core, so the facts are restated here and
/// pinned against core by tests/lint/flow_test.cpp).
constexpr std::size_t kOutPlusToAb1 = 0;   ///< Pdet out+ drives AB1
constexpr std::size_t kOutMinusToAb2 = 1;  ///< Pdet out- drives AB2
constexpr std::size_t kFdetToAb1 = 2;      ///< Fdet output drives AB1
constexpr std::size_t kDetectorPower = 6;  ///< detector power gate

/// Driver routes per analog bus: (select bit, human label).
struct DriverRoute {
    std::size_t bit;
    const char* label;
};
constexpr std::array<DriverRoute, 2> kAb1Drivers{{{kOutPlusToAb1, "out+ -> AB1"},
                                                  {kFdetToAb1, "Fdet -> AB1"}}};
constexpr std::array<DriverRoute, 1> kAb2Drivers{{{kOutMinusToAb2, "out- -> AB2"}}};

/// Walks the 16-state TAP machine op by op.  The walk itself is what makes
/// the interpretation flow-sensitive in TAP terms: latch events are applied
/// exactly when the walk enters Update-IR / Update-DR, as on real hardware.
class TapWalker {
  public:
    /// Clock one TCK edge; returns the state entered.
    TapState advance(bool tms) {
        state_ = jtag::next_tap_state(state_, tms);
        return state_;
    }

    /// Canonical shortest TMS path to @p target (BFS, ties prefer TMS=0 —
    /// the same routing TapDriver::go_to uses).
    void go_to(TapState target) {
        if (state_ == target) return;
        constexpr int kNumStates = 16;
        std::array<int, kNumStates> prev_state{};
        std::array<int, kNumStates> prev_tms{};
        prev_state.fill(-1);
        const int start = static_cast<int>(state_);
        const int goal = static_cast<int>(target);
        std::array<int, kNumStates> queue{};
        int head = 0;
        int tail = 0;
        queue[tail++] = start;
        prev_state[start] = start;
        while (head < tail) {
            const int s = queue[head++];
            if (s == goal) break;
            for (int tms = 0; tms <= 1; ++tms) {
                const int n = static_cast<int>(
                    jtag::next_tap_state(static_cast<TapState>(s), tms != 0));
                if (prev_state[n] == -1) {
                    prev_state[n] = s;
                    prev_tms[n] = tms;
                    queue[tail++] = n;
                }
            }
        }
        std::vector<bool> tms_path;
        for (int s = goal; s != start; s = prev_state[s]) {
            tms_path.push_back(prev_tms[s] != 0);
        }
        std::reverse(tms_path.begin(), tms_path.end());
        for (const bool tms : tms_path) advance(tms);
    }

    /// Five TMS-ones: Test-Logic-Reset from any state.
    void reset() {
        for (int i = 0; i < 5; ++i) advance(true);
    }

    /// The full scan choreography: move to Shift, shift @p bits, exit via
    /// Exit1 into Update (the latch event), settle in Run-Test/Idle.
    void scan(bool ir, std::size_t bits) {
        go_to(ir ? TapState::kShiftIr : TapState::kShiftDr);
        for (std::size_t b = 1; b < bits; ++b) advance(false);  // shift, stay
        advance(true);   // last bit shifts on the edge that exits to Exit1
        advance(true);   // Exit1 -> Update: the latch event
        advance(false);  // Update -> Run-Test/Idle
    }

    TapState state() const { return state_; }

  private:
    TapState state_ = TapState::kTestLogicReset;
};

class Interpreter {
  public:
    Interpreter(const CampaignProgram& program, Report& report,
                const FlowLintOptions& options)
        : program_(program), report_(report), options_(options),
          dies_(std::max<std::size_t>(program.chain.dies, 1)) {}

    std::size_t run() {
        const std::size_t before = report_.diagnostics().size();
        for (std::size_t i = 0; i < program_.ops.size(); ++i) {
            const FlowOp& op = program_.ops[i];
            switch (op.kind) {
                case FlowOp::Kind::kReset: exec_reset(i); break;
                case FlowOp::Kind::kIrScan: exec_ir_scan(op, i); break;
                case FlowOp::Kind::kAbmScan: exec_abm_scan(op, i); break;
                case FlowOp::Kind::kSelectScan: exec_select_scan(op, i); break;
                case FlowOp::Kind::kRunTest: tap_.go_to(TapState::kRunTestIdle); break;
                case FlowOp::Kind::kCalibrate: exec_calibrate(op, i); break;
                case FlowOp::Kind::kMeasure: exec_measure(op, i); break;
            }
        }
        return report_.diagnostics().size() - before;
    }

  private:
    DieState* die_of(const FlowOp& op, std::size_t index) {
        if (op.die < dies_.size()) return &dies_[op.die];
        emit(index, "flow-bad-die", Severity::kError,
             step_label(op, index) + ": die " + std::to_string(op.die) +
                 " outside the declared chain of " + std::to_string(dies_.size()) +
                 " die(s)",
             {}, "declare the die in the chain directive");
        return nullptr;
    }

    void exec_reset(std::size_t index) {
        tap_.reset();
        for (DieState& die : dies_) {
            die.ir = static_cast<int>(jtag::opcode(jtag::Instruction::kIdcode));
            die.ir_step = index;
            // Latched analog state survives a TAP reset: the select register
            // and boundary latches are not on the TAP reset path.
        }
    }

    void exec_ir_scan(const FlowOp& op, std::size_t index) {
        tap_.scan(/*ir=*/true, jtag::kIrLength * dies_.size());
        const auto decoded = jtag::decode_instruction(op.ir);
        for (DieState& die : dies_) {
            die.ir = static_cast<int>(jtag::opcode(decoded));
            die.ir_step = index;
        }
    }

    void exec_abm_scan(const FlowOp& op, std::size_t index) {
        tap_.scan(/*ir=*/false, kAbmBits * dies_.size());
        DieState* die = die_of(op, index);
        if (die == nullptr) return;
        if (abm_payload_misses_boundary(op, index, *die)) return;

        const std::array<Tri, kAbmBits> before{
            die->abm[0], die->abm[1], die->abm[2], die->abm[3], die->abm[4], die->abm[5]};
        for (std::size_t b = 0; b < kAbmBits; ++b) {
            if (op.bits[b] == Tri::kUnknown && die->abm_step[b] != kNoStep) {
                continue;  // unspecified payload bit: the latch keeps its value
            }
            if (op.bits[b] != die->abm[b] || die->abm_step[b] == kNoStep) {
                die->abm_step[b] = index;
            }
            die->abm[b] = op.bits[b];
        }

        check_crowbar(op, index, *die, before);
        check_break_before_make(op, index, *die, before);
    }

    void exec_select_scan(const FlowOp& op, std::size_t index) {
        // The serial select bus latches outside the TAP, but its update is an
        // update event for the windowed rules all the same.
        DieState* die = die_of(op, index);
        if (die == nullptr) return;

        if (options_.check_dead_updates && die->last_select_update != kNoStep &&
            !die->select_observed) {
            const std::size_t dead = die->last_select_update;
            Diagnostic diag;
            diag.rule = "flow-dead-update";
            diag.severity = Severity::kWarning;
            diag.loc = program_.ops[dead].loc;
            diag.device = device_of(op.die);
            diag.message = step_label(program_.ops[dead], dead) +
                           ": select word is overwritten by " +
                           step_label(op, index) +
                           " before any measure or calibrate observes it (dead program step)";
            diag.fixit = "drop the dead update or move the read before the overwrite";
            diag.witness = {witness_line(dead, "latches the unobserved select word"),
                            witness_line(index, "overwrites it")};
            report_.add(std::move(diag));
        }

        bool closed_driver = false;
        bool opened_driver = false;
        for (std::size_t b = 0; b < kSelectBits; ++b) {
            if (op.bits[b] == Tri::kUnknown && die->select_step[b] != kNoStep) {
                continue;  // unspecified payload bit keeps the latched value
            }
            const bool driver = b == kOutPlusToAb1 || b == kOutMinusToAb2 || b == kFdetToAb1;
            if (op.bits[b] == Tri::kOne && die->select[b] != Tri::kOne) {
                closed_driver = closed_driver || driver;
            }
            if (op.bits[b] == Tri::kZero && die->select[b] != Tri::kZero) {
                opened_driver = opened_driver || driver;
            }
            if (op.bits[b] != die->select[b] || die->select_step[b] == kNoStep) {
                die->select_step[b] = index;
            }
            die->select[b] = op.bits[b];
        }
        die->last_select_update = index;
        // A word that opens bus drivers and closes none is a release: the bus
        // sees it (break-before-make), so overwriting it is not a dead store.
        die->select_observed = opened_driver && !closed_driver;

        if (closed_driver) check_contention(op, index);
    }

    void exec_calibrate(const FlowOp& op, std::size_t index) {
        DieState* die = die_of(op, index);
        if (die == nullptr) return;
        die->calibrated = true;
        observe_selects();
    }

    void exec_measure(const FlowOp& op, std::size_t index) {
        DieState* die = die_of(op, index);
        if (die == nullptr) return;

        // The read goes through the analog buses: PROBE (or another analog
        // test instruction) must be latched for the switch fabric to follow
        // the boundary/select latches at all.
        const bool probing =
            die->ir >= 0 &&
            jtag::is_analog_test_mode(
                jtag::decode_instruction(static_cast<std::uint8_t>(die->ir)));
        if (!probing) {
            Diagnostic diag = base(op, index, "flow-read-before-select", Severity::kError);
            diag.message =
                step_label(op, index) + ": detector read with " +
                (die->ir < 0 ? std::string("no instruction established")
                             : "instruction '" +
                                   std::string(jtag::to_string(jtag::decode_instruction(
                                       static_cast<std::uint8_t>(die->ir)))) +
                                   "' latched") +
                "; the switch fabric is not in an analog test mode";
            diag.fixit = "scan PROBE before the read";
            if (die->ir_step != kNoStep) {
                diag.witness.push_back(witness_line(die->ir_step, "latches the instruction"));
            }
            diag.witness.push_back(witness_line(index, "reads the detector"));
            report_.add(std::move(diag));
        }

        // Required routing for the detector being read.
        std::vector<DriverRoute> required;
        if (op.detector == Detector::kPower) {
            required.push_back(kAb1Drivers[0]);
            required.push_back(kAb2Drivers[0]);
        } else {
            required.push_back(kAb1Drivers[1]);
        }
        for (const DriverRoute& route : required) {
            if (die->select[route.bit] == Tri::kOne) continue;
            Diagnostic diag = base(op, index, "flow-read-before-select", Severity::kError);
            diag.message = step_label(op, index) + ": reads the " +
                           std::string(to_string(op.detector)) + " detector but route '" +
                           route.label + "' is " +
                           (die->select[route.bit] == Tri::kZero ? "latched open"
                                                                 : "never established");
            diag.fixit = "land the select word routing the detector before the read";
            if (die->select_step[route.bit] != kNoStep) {
                diag.witness.push_back(
                    witness_line(die->select_step[route.bit], "last update of the route"));
            }
            diag.witness.push_back(witness_line(index, "reads the detector"));
            report_.add(std::move(diag));
        }

        // Power gating: the detectors must be powered when read.
        if (die->select[kDetectorPower] != Tri::kOne) {
            Diagnostic diag = base(op, index, "flow-unpowered-read", Severity::kError);
            diag.message = step_label(op, index) + ": reads the " +
                           std::string(to_string(op.detector)) +
                           " detector while detector power is " +
                           (die->select[kDetectorPower] == Tri::kZero
                                ? "latched off"
                                : "never established");
            diag.fixit = "set the detector-power select bit before the read";
            if (die->select_step[kDetectorPower] != kNoStep) {
                diag.witness.push_back(witness_line(die->select_step[kDetectorPower],
                                                    "last update of the power gate"));
            }
            diag.witness.push_back(witness_line(index, "reads the detector"));
            report_.add(std::move(diag));
        }

        if (options_.check_calibration && !die->calibrated) {
            Diagnostic diag =
                base(op, index, "flow-measure-before-calibrate", Severity::kWarning);
            diag.message = step_label(op, index) + ": die " + std::to_string(op.die) +
                           " is measured before any calibrate step; the conversion "
                           "curve is unanchored";
            diag.fixit = "insert a calibrate step for the die before its first measure";
            diag.witness.push_back(witness_line(index, "first read of the uncalibrated die"));
            report_.add(std::move(diag));
        }

        observe_selects();
    }

    /// A read observes the shared buses: every die's latched select word is
    /// now "used" for dead-store purposes (conservative — never flags a word
    /// a cross-die read may have depended on).
    void observe_selects() {
        for (DieState& die : dies_) die.select_observed = true;
    }

    /// The payload lands in whatever register the latched instruction
    /// selects.  Unless that is the boundary register, the ABM latches keep
    /// their values: fire, and tell the caller to leave them alone.
    bool abm_payload_misses_boundary(const FlowOp& op, std::size_t index,
                                     const DieState& die) {
        if (die.ir < 0) return false;
        const auto instruction = jtag::decode_instruction(static_cast<std::uint8_t>(die.ir));
        if (jtag::selects_boundary(instruction)) return false;
        const std::string name(jtag::to_string(instruction));
        Diagnostic diag = base(op, index, "flow-abm-wrong-register", Severity::kError);
        diag.message = step_label(op, index) + ": ABM payload for die " +
                       std::to_string(op.die) + " is shifted into the " + name +
                       " register; the boundary latches keep their values";
        diag.fixit = "scan EXTEST or PROBE before the payload";
        diag.witness = {witness_line(die.ir_step, "latches instruction '" + name + "'"),
                        witness_line(index, "shifts the ABM payload")};
        report_.add(std::move(diag));
        return true;
    }

    void check_crowbar(const FlowOp& op, std::size_t index, DieState& die,
                       const std::array<Tri, kAbmBits>& before) {
        const auto sh = static_cast<std::size_t>(AbmBit::kSh);
        const auto sl = static_cast<std::size_t>(AbmBit::kSl);
        const bool now = die.abm[sh] == Tri::kOne && die.abm[sl] == Tri::kOne;
        const bool was = before[sh] == Tri::kOne && before[sl] == Tri::kOne;
        if (!now || was) return;  // fire once, at the update creating the window
        Diagnostic diag = base(op, index, "flow-crowbar-window", Severity::kError);
        diag.message = step_label(op, index) + ": die " + std::to_string(op.die) +
                       " holds SH and SL closed together between update events — a "
                       "VH-VL crowbar through the pin until the next Update-DR";
        diag.fixit = "open SH (or SL) in the same update, or insert an intermediate "
                     "update opening both";
        diag.witness = {witness_line(die.abm_step[sh], "latches SH closed"),
                        witness_line(die.abm_step[sl], "latches SL closed")};
        sort_unique(diag.witness);
        report_.add(std::move(diag));
    }

    void check_break_before_make(const FlowOp& op, std::size_t index, DieState& die,
                                 const std::array<Tri, kAbmBits>& before) {
        const auto sb1 = static_cast<std::size_t>(AbmBit::kSb1);
        const auto sb2 = static_cast<std::size_t>(AbmBit::kSb2);
        const bool handoff_12 = before[sb1] == Tri::kOne && before[sb2] == Tri::kZero &&
                                die.abm[sb1] == Tri::kZero && die.abm[sb2] == Tri::kOne;
        const bool handoff_21 = before[sb2] == Tri::kOne && before[sb1] == Tri::kZero &&
                                die.abm[sb2] == Tri::kZero && die.abm[sb1] == Tri::kOne;
        if (!handoff_12 && !handoff_21) return;
        const char* from = handoff_12 ? "AB1" : "AB2";
        const char* to = handoff_12 ? "AB2" : "AB1";
        Diagnostic diag = base(op, index, "flow-break-before-make", Severity::kError);
        diag.message = step_label(op, index) + ": die " + std::to_string(op.die) +
                       " hands the pin straight from " + from + " to " + to +
                       " in one update; switch skew can bridge the buses during the "
                       "handoff";
        diag.fixit = "insert an intermediate update with SB1 and SB2 both open";
        const std::size_t prev = handoff_12 ? die.abm_step[sb1] : die.abm_step[sb2];
        // The previous route's origin predates this update (abm_step was just
        // rewritten); cite the steps we still know.
        diag.witness = {witness_line(index, std::string("opens ") + from +
                                                " and closes " + to +
                                                " in the same update event")};
        if (prev != kNoStep && prev != index) {
            diag.witness.insert(diag.witness.begin(),
                                witness_line(prev, std::string("pin routed to ") + from));
        }
        report_.add(std::move(diag));
    }

    void check_contention(const FlowOp& op, std::size_t index) {
        struct Bus {
            const char* name;
            const DriverRoute* routes;
            std::size_t count;
        };
        const std::array<Bus, 2> buses{{{"AB1", kAb1Drivers.data(), kAb1Drivers.size()},
                                        {"AB2", kAb2Drivers.data(), kAb2Drivers.size()}}};
        for (const Bus& bus : buses) {
            struct Driver {
                std::uint32_t die;
                const char* label;
                std::size_t step;
            };
            std::vector<Driver> drivers;
            bool this_update_contributes = false;
            for (std::uint32_t d = 0; d < dies_.size(); ++d) {
                for (std::size_t r = 0; r < bus.count; ++r) {
                    const std::size_t bit = bus.routes[r].bit;
                    if (dies_[d].select[bit] != Tri::kOne) continue;
                    drivers.push_back({d, bus.routes[r].label, dies_[d].select_step[bit]});
                    if (d == op.die && dies_[d].select_step[bit] == index) {
                        this_update_contributes = true;
                    }
                }
            }
            if (drivers.size() < 2 || !this_update_contributes) continue;
            Diagnostic diag = base(op, index, "flow-bus-contention", Severity::kError);
            diag.device = "flow:chain";
            std::string who;
            for (const Driver& drv : drivers) {
                if (!who.empty()) who += ", ";
                who += "die " + std::to_string(drv.die) + " '" + drv.label + "'";
            }
            diag.message = step_label(op, index) + ": " + std::to_string(drivers.size()) +
                           " drivers latched onto shared bus " + bus.name + " (" + who +
                           ")";
            diag.fixit = "open the other die's route before closing this one";
            for (const Driver& drv : drivers) {
                diag.witness.push_back(witness_line(
                    drv.step, "die " + std::to_string(drv.die) + " closes '" +
                                  drv.label + "'"));
            }
            sort_unique(diag.witness);
            report_.add(std::move(diag));
        }
    }

    // --- plumbing ---------------------------------------------------------

    static std::string device_of(std::uint32_t die) {
        return "flow:die " + std::to_string(die);
    }

    Diagnostic base(const FlowOp& op, std::size_t index, std::string rule,
                    Severity severity) {
        (void)index;
        Diagnostic diag;
        diag.rule = std::move(rule);
        diag.severity = severity;
        diag.loc = op.loc;
        diag.device = device_of(op.die);
        return diag;
    }

    std::string witness_line(std::size_t step, const std::string& what) const {
        if (step == kNoStep || step >= program_.ops.size()) return what;
        const FlowOp& op = program_.ops[step];
        std::string line = step_label(op, step);
        if (op.loc.valid()) {
            line += " [" + (op.loc.file.empty() ? "<program>" : op.loc.file) + ":" +
                    std::to_string(op.loc.line) + "]";
        }
        if (!what.empty()) line += ": " + what;
        return line;
    }

    static void sort_unique(std::vector<std::string>& lines) {
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    }

    void emit(std::size_t index, std::string rule, Severity severity, std::string message,
              std::vector<std::string> witness, std::string fixit) {
        Diagnostic diag;
        diag.rule = std::move(rule);
        diag.severity = severity;
        diag.loc = program_.ops[index].loc;
        diag.device = "flow:chain";
        diag.message = std::move(message);
        diag.fixit = std::move(fixit);
        diag.witness = std::move(witness);
        report_.add(std::move(diag));
    }

    const CampaignProgram& program_;
    Report& report_;
    FlowLintOptions options_;
    std::vector<DieState> dies_;
    TapWalker tap_;
};

}  // namespace

std::size_t flow_lint(const CampaignProgram& program, Report& report,
                      const FlowLintOptions& options) {
    return Interpreter(program, report, options).run();
}

}  // namespace rfabm::lint::flow
