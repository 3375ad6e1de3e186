// Flow-sensitive abstract interpretation of campaign scan programs.
//
// The snapshot linter (lint/abm_rules.hpp) checks one latched state in
// isolation; the defect classes that kill campaigns are *temporal* — they
// only exist between steps.  flow_lint() symbolically executes a
// CampaignProgram through the real 16-state TAP machine
// (jtag/tap_state.hpp), maintaining the abstract lattice of latched state
// per die (lattice.hpp), and fires rules the snapshot linter cannot
// express:
//
//   flow-crowbar-window        SH and SL latched closed together in the
//                              window between two update events (each update
//                              alone looked fine)
//   flow-break-before-make     a single update hands a pin straight from AB1
//                              to AB2 (or back) with no disconnect interval
//   flow-bus-contention        two latched drivers on one shared analog bus,
//                              across any dies of the chain
//   flow-read-before-select    a detector read before its routing (or the
//                              PROBE instruction) has landed
//   flow-unpowered-read        a detector read while the power-gating select
//                              bit is not known to be on
//   flow-measure-before-calibrate  a die measured before it was calibrated
//   flow-abm-wrong-register    an ABM payload shifted while the latched
//                              instruction selects another register (the
//                              latches keep their values)
//   flow-dead-update           a select update overwritten before any step
//                              observes it (dead store / dead program step);
//                              a bus release (opens drivers, closes none) is
//                              observed by the bus itself
//
// Every diagnostic carries a witness trace: the minimal op sequence that
// establishes the bad state, reconstructed from the per-latch provenance the
// lattice keeps.  Witnesses render through the ordinary Report machinery
// (Diagnostic::witness; text and JSON).
#pragma once

#include "lint/diagnostics.hpp"
#include "lint/flow/program.hpp"

namespace rfabm::lint::flow {

struct FlowLintOptions {
    /// Fire flow-measure-before-calibrate (campaigns replaying third-party
    /// vectors may calibrate out of band).
    bool check_calibration = true;
    /// Fire flow-dead-update for overwritten-but-never-observed selects.
    bool check_dead_updates = true;
};

/// Symbolically execute @p program, appending flow diagnostics to
/// @p report.  Returns the number of diagnostics added (before suppression).
std::size_t flow_lint(const CampaignProgram& program, Report& report,
                      const FlowLintOptions& options = {});

}  // namespace rfabm::lint::flow
