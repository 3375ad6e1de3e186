#include "core/measurement.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <sstream>

#include "circuit/measure.hpp"
#include "circuit/transient.hpp"
#include "jtag/instructions.hpp"
#include "lint/erc.hpp"
#include "lint/flow/cache.hpp"
#include "lint/flow/interpreter.hpp"

namespace rfabm::core {

using circuit::NodeId;
using rfabm::jtag::Instruction;
using rfabm::jtag::TbicPattern;

const char* to_string(MeasurementStatus status) {
    switch (status) {
        case MeasurementStatus::kOk: return "Ok";
        case MeasurementStatus::kDegraded: return "Degraded";
        case MeasurementStatus::kFailed: return "Failed";
        case MeasurementStatus::kTimedOut: return "TimedOut";
        case MeasurementStatus::kNonFinite: return "NonFinite";
    }
    return "?";
}

const char* to_string(SuspectedFault fault) {
    switch (fault) {
        case SuspectedFault::kNone: return "none";
        case SuspectedFault::kScanChain: return "scan-chain";
        case SuspectedFault::kSelectPath: return "select-path";
        case SuspectedFault::kConvergence: return "convergence";
        case SuspectedFault::kSignalPath: return "signal-path";
        case SuspectedFault::kNonSettling: return "non-settling";
        case SuspectedFault::kConfigLint: return "config-lint";
        case SuspectedFault::kCancelled: return "cancelled";
        case SuspectedFault::kNonFinite: return "non-finite";
    }
    return "?";
}

lint::SelectBusModel mux4_select_model() {
    lint::SelectBusModel model;
    model.name = ".4MUX";
    model.power_bit = static_cast<int>(SelectBit::kDetectorPower);
    model.routes = {
        {static_cast<std::size_t>(SelectBit::kOutPlusToAb1), 1, true, "out+ -> AB1"},
        {static_cast<std::size_t>(SelectBit::kOutMinusToAb2), 2, true, "out- -> AB2"},
        {static_cast<std::size_t>(SelectBit::kFdetToAb1), 1, true, "Fdet -> AB1"},
        {static_cast<std::size_t>(SelectBit::kTunePFromAb2), 2, false, "tuneP <- AB2"},
        {static_cast<std::size_t>(SelectBit::kTuneFFromAb2), 2, false, "tuneF <- AB2"},
        {static_cast<std::size_t>(SelectBit::kIbiasFromAb1), 1, false, "Ibias <- AB1"},
    };
    return model;
}

std::string MeasurementDiagnostics::to_string() const {
    std::ostringstream os;
    os << rfabm::core::to_string(status) << " (suspect: " << rfabm::core::to_string(suspect)
       << ", retries: " << retries << ", sessions: " << reopened_sessions;
    if (backoff_s_total > 0.0) os << ", backoff: " << backoff_s_total * 1e9 << " ns";
    if (fallback_used) os << ", fallback: " << fallback;
    os << ")";
    if (!detail.empty()) os << ": " << detail;
    return os.str();
}

namespace {

/// y-extent of a calibration curve (the ends, since it is monotone).
struct YRange {
    double lo = 0.0;
    double hi = 0.0;
    double span() const { return hi - lo; }
};

YRange curve_y_range(const rfabm::rf::MonotoneCurve& cal) {
    const double a = cal.points().front().y;
    const double b = cal.points().back().y;
    return {std::min(a, b), std::max(a, b)};
}

}  // namespace

namespace {

/// Session-boundary crash-point plumbing (see set_session_open_hook).
std::atomic<void (*)(std::uint64_t)> g_session_open_hook{nullptr};
std::atomic<std::uint64_t> g_sessions_opened{0};

}  // namespace

void MeasurementController::set_session_open_hook(void (*hook)(std::uint64_t)) {
    g_session_open_hook.store(hook, std::memory_order_release);
}

MeasurementController::MeasurementController(RfAbmChip& chip, MeasureOptions options)
    : chip_(chip), options_(options) {}

void MeasurementController::open_session() {
    auto& drv = chip_.tap_driver();
    drv.reset_via_tms();
    // Load PROBE; the instruction hook forces mission-safe defaults, then the
    // boundary scan sets the TBIC connect pattern.  Cell order in the chip's
    // boundary register: TBIC S1..S6, then ABM_RF (D,E,G,B1,B2), then
    // ABM_FIN (D,E,G,B1,B2) — 16 cells.
    drv.load(Instruction::kProbe);
    std::vector<bool> cells(16, false);
    cells[0] = true;  // TBIC S1: AT1 - AB1
    cells[1] = true;  // TBIC S2: AT2 - AB2
    drv.scan_dr(cells);
    // Power on the detectors through the serial select bus.
    select_ = select_word({SelectBit::kDetectorPower});
    chip_.select_bus().write_word(select_, kSelectWidth);
    // Establish the operating point with the session topology in place.
    chip_.engine().init();
    session_open_ = true;
    engine_ready_ = true;
    const std::uint64_t seq = g_sessions_opened.fetch_add(1, std::memory_order_relaxed) + 1;
    if (auto* hook = g_session_open_hook.load(std::memory_order_acquire)) hook(seq);
}

void MeasurementController::set_select(std::uint8_t word) {
    select_ = word;
    chip_.select_bus().write_word(word, kSelectWidth);
}

double MeasurementController::settle_read(NodeId p, NodeId n, double period, int cycles,
                                          bool* settled) {
    circuit::SettleOptions sopts;
    sopts.period = period;
    sopts.cycles_per_window = cycles;
    sopts.rel_tol = options_.rel_tol;
    sopts.abs_tol = options_.abs_tol;
    sopts.max_windows = options_.max_windows;
    sopts.lookback = options_.lookback;
    sopts.min_windows = options_.lookback + 2;
    const circuit::SettleResult r =
        circuit::settle_cycle_average(chip_.engine(), p, n, sopts);
    if (settled != nullptr) *settled = r.settled;
    return r.value;
}

double MeasurementController::read_at1() {
    return settle_read(chip_.at1(), circuit::kGround, chip_.stimulus_period(),
                       options_.cycles_per_window, &last_settled_);
}

double MeasurementController::read_diff() {
    return settle_read(chip_.at1(), chip_.at2(), chip_.stimulus_period(),
                       options_.cycles_per_window, &last_settled_);
}

double MeasurementController::apply_tune(double volts, SelectBit bit, NodeId pin,
                                         void (RfAbmChip::*hold_setter)(double)) {
    if (!session_open_) open_session();
    // Route AB2 to the tuning pin, connect the bench source to AT2, drive.
    set_select(static_cast<std::uint8_t>(select_word({bit, SelectBit::kDetectorPower})));
    chip_.set_tune_source(volts, /*connected=*/true);
    // Let the hold capacitor charge through the bus (tau ~ 10 pF * 250 ohm).
    chip_.engine().run_for(200e-9);
    const double latched = chip_.engine().v(pin);
    // Park the value on the external hold DAC and release the bus.
    (chip_.*hold_setter)(latched);
    chip_.set_tune_source(0.0, /*connected=*/false);
    set_select(select_word({SelectBit::kDetectorPower}));
    tare_valid_ = false;  // tuning moves the zero-signal offset
    return latched;
}

double MeasurementController::apply_tune_p(double volts) {
    return apply_tune(volts, SelectBit::kTunePFromAb2, chip_.tune_p_pin(),
                      &RfAbmChip::set_hold_tune_p);
}

double MeasurementController::apply_tune_f(double volts) {
    return apply_tune(volts, SelectBit::kTuneFFromAb2, chip_.tune_f_pin(),
                      &RfAbmChip::set_hold_tune_f);
}

double MeasurementController::tare_power() {
    if (!session_open_) open_session();
    set_select(select_word(
        {SelectBit::kOutPlusToAb1, SelectBit::kOutMinusToAb2, SelectBit::kDetectorPower}));
    // Mute the generator, read the residual offset, restore the drive.
    const auto saved_hz = chip_.rf_frequency();
    const auto saved_dbm = chip_.rf_power_dbm();
    chip_.rf_off();
    // Dwell: let the gate-bias network recover from any prior large drive
    // before judging convergence.
    chip_.engine().run_for(100e-9);
    tare_ = read_diff();
    tare_valid_ = true;
    if (saved_hz && saved_dbm) chip_.set_rf(*saved_dbm, *saved_hz);
    return tare_;
}

double MeasurementController::measure_power_vout() {
    if (!session_open_) open_session();
    if (!tare_valid_) tare_power();
    set_select(select_word(
        {SelectBit::kOutPlusToAb1, SelectBit::kOutMinusToAb2, SelectBit::kDetectorPower}));
    return read_diff() - tare_;
}

double MeasurementController::measure_freq_vout(bool use_fin) {
    if (!session_open_) open_session();
    auto bits = use_fin ? select_word({SelectBit::kFdetToAb1, SelectBit::kDetectorPower,
                                       SelectBit::kInputSelectFin})
                        : select_word({SelectBit::kFdetToAb1, SelectBit::kDetectorPower});
    set_select(bits);
    return settle_read(chip_.at1(), circuit::kGround, chip_.fvc_clock_period(),
                       options_.freq_cycles_per_window, &last_settled_);
}

std::optional<rf::surrogate::Query> MeasurementController::surrogate_query(double vdd) const {
    if (options_.surrogate.store == nullptr) return std::nullopt;
    // Surfaces are parameterized by the applied stimulus; without a known
    // generator setting there is no honest query (or training) point.
    const auto dbm = chip_.rf_power_dbm();
    const auto hz = chip_.rf_frequency();
    if (!dbm || !hz) return std::nullopt;
    rf::surrogate::Query q;
    q.pin_dbm = *dbm;
    q.freq_hz = *hz;
    q.vdd = vdd;
    return q;
}

bool MeasurementController::surrogate_serve(rf::surrogate::Quantity quantity, double vdd,
                                            double* vout, double* bound) {
    // Training-generation binding: observe-only, the tier is never consulted
    // (see SurrogateBinding::serve).
    if (!options_.surrogate.serve) return false;
    const auto q = surrogate_query(vdd);
    if (!q) return false;
    const rf::surrogate::SurrogateKey key{static_cast<std::uint32_t>(quantity),
                                          options_.surrogate.die, options_.surrogate.corner};
    last_surrogate_ = options_.surrogate.store->try_serve(key, *q, vout, bound);
    return last_surrogate_ == rf::surrogate::Decision::kHit;
}

void MeasurementController::surrogate_observe(rf::surrogate::Quantity quantity, double vdd,
                                              double vout) {
    const auto q = surrogate_query(vdd);
    if (!q || !std::isfinite(vout)) return;
    const rf::surrogate::SurrogateKey key{static_cast<std::uint32_t>(quantity),
                                          options_.surrogate.die, options_.surrogate.corner};
    options_.surrogate.store->observe(key, *q, vout);
}

PowerMeasurement MeasurementController::measure_power(const rfabm::rf::MonotoneCurve& cal) {
    PowerMeasurement m;
    // Tier 1: serve the settled Vout from the fitted response surface when
    // the query is in-envelope and the surface's error bound is in budget.
    if (surrogate_serve(rf::surrogate::Quantity::kPowerVout, chip_.conditions().vdd_pdet,
                        &m.vout, &m.surrogate_bound)) {
        m.from_surrogate = true;
        m.settled = true;
        m.dbm = cal.invert(m.vout);
        return m;
    }
    // Tier 2: the full transient solve, which also trains the surface.
    m.vout = measure_power_vout();
    m.settled = last_settled_;
    m.dbm = cal.invert(m.vout);
    if (m.settled) {
        surrogate_observe(rf::surrogate::Quantity::kPowerVout, chip_.conditions().vdd_pdet,
                          m.vout);
    }
    return m;
}

FrequencyMeasurement MeasurementController::measure_frequency(
    const rfabm::rf::MonotoneCurve& cal, bool use_fin) {
    FrequencyMeasurement m;
    // Tier 1 (RF path only: the fin path measures a different input whose
    // frequency the surrogate key does not describe).  Surfaces train only on
    // valid reads, so a served reading counts as valid by construction.
    if (!use_fin &&
        surrogate_serve(rf::surrogate::Quantity::kFreqVout, chip_.conditions().vdd_fdet,
                        &m.vout, &m.surrogate_bound)) {
        m.from_surrogate = true;
        m.settled = true;
        m.valid = true;
        m.ghz = cal.invert(m.vout);
        return m;
    }
    const std::uint64_t edges_before = chip_.fvc_edges();
    m.vout = measure_freq_vout(use_fin);
    m.settled = last_settled_;
    m.edges = chip_.fvc_edges() - edges_before;
    m.ghz = cal.invert(m.vout);
    // A frequency read needs a live clock: demand a sensible edge count.
    m.valid = m.settled && m.edges >= 8;
    if (!use_fin && m.valid) {
        surrogate_observe(rf::surrogate::Quantity::kFreqVout, chip_.conditions().vdd_fdet,
                          m.vout);
    }
    return m;
}

bool MeasurementController::verify_scan_chain() {
    // read_idcode() loads the IDCODE instruction, dropping PROBE: whatever
    // session was open is gone after this check.
    session_open_ = false;
    // TMS-reset first, as a bench tester would: it re-synchronizes a TAP
    // desynchronized by earlier clock glitches before the readback is judged.
    chip_.tap_driver().reset_via_tms();
    const std::uint32_t expected = chip_.config().idcode | 1u;  // LSB always 1
    return chip_.tap_driver().read_idcode() == expected;
}

bool MeasurementController::verify_select(std::uint8_t word) const {
    auto& bus = chip_.select_bus();
    for (std::size_t i = 0; i < kSelectWidth; ++i) {
        if (bus.output(i) != (((word >> i) & 1u) != 0)) return false;
    }
    return true;
}

double MeasurementController::liveness_read(NodeId pin) {
    // Coarse amplitude estimate only: relaxed tolerances, tight window
    // budget, so a dead (slowly drifting) pin cannot stall the pipeline.
    circuit::SettleOptions sopts;
    sopts.period = chip_.stimulus_period();
    sopts.cycles_per_window = options_.cycles_per_window;
    sopts.rel_tol = 1e-2;
    sopts.abs_tol = 1e-3;
    sopts.max_windows = 40;
    sopts.lookback = 2;
    sopts.min_windows = 4;
    return circuit::settle_cycle_average(chip_.engine(), pin, circuit::kGround, sopts).value;
}

std::size_t MeasurementController::lint_preflight(std::uint8_t word, lint::Report& report) {
    const std::size_t before = report.diagnostics().size();
    // Electrical rules over the whole chip netlist.  Dangling-node checks are
    // off: chip-level blocks legitimately own sense-only nets (comparator
    // taps, probe nodes) that a board-level ERC would not see.
    lint::ErcOptions erc;
    erc.check_dangling = false;
    lint::run_erc(chip_.circuit(), report, erc);
    // 1149.4 switch-state rules for the current instruction.
    lint::lint_abm_state(chip_.rf_pin_abm(), report);
    lint::lint_abm_state(chip_.fin_pin_abm(), report);
    lint::lint_tbic_state(chip_.tbic(), report);
    // Select-word contention rules plus the MUX-vs-latch cross-check: a
    // routing switch whose electrical state disagrees with its latched select
    // bit is stuck (the select readback cannot see this).
    const lint::SelectBusModel model = mux4_select_model();
    lint::lint_select_word(model, word, report);
    for (const lint::SelectRoute& route : model.routes) {
        const auto bit = static_cast<SelectBit>(route.bit);
        const bool latched = chip_.select_bus().output(route.bit);
        const bool closed = chip_.mux().switch_for(bit).effective_closed();
        if (latched != closed) {
            report.add("mux-select-mismatch", lint::Severity::kError, lint::SourceLoc{},
                       ".4 MUX route '" + route.name + "' is " +
                           (closed ? "closed" : "open") + " but its select latch says " +
                           (latched ? "closed" : "open") + ": switch stuck?",
                       "", model.name);
        }
    }
    return report.diagnostics().size() - before;
}

namespace {

/// First error in @p report (for MeasurementDiagnostics::detail).
std::string first_lint_error(const lint::Report& report) {
    for (const auto& diag : report.diagnostics()) {
        if (diag.severity == lint::Severity::kError) {
            return diag.message + " [" + diag.rule + "]";
        }
    }
    return "static lint reported errors";
}

}  // namespace

bool MeasurementController::flow_admission_rejects(MeasurementDiagnostics& d) {
    if (options_.admission_program == nullptr) return false;
    lint::Report report;
    if (options_.admission_cache != nullptr) {
        options_.admission_cache->admit(*options_.admission_program, report);
    } else {
        lint::flow::flow_lint(*options_.admission_program, report);
    }
    if (!report.has_errors()) return false;
    // The campaign's own scan-program sequence is statically broken: no
    // retry or session can fix it, so reject before the TAP is touched.
    d.suspect = SuspectedFault::kConfigLint;
    d.status = MeasurementStatus::kFailed;
    d.detail = first_lint_error(report);
    return true;
}

struct MeasurementController::CheckedRead {
    std::uint8_t word = 0;    ///< select word routing the detector to the ATAP pins
    std::uint8_t routes = 0;  ///< the bus-route bits of `word`, opened to mute the bus
    std::function<double()> read;  ///< one settled read; leaves last_settled_
    /// Liveness probe of a settled read; @p edges counts the FVC clock edges
    /// since the attempt's session was opened.  Returns the finding, or an
    /// empty string when the detector is alive.
    std::function<std::string(std::uint64_t edges)> alive;
    rf::surrogate::Quantity quantity{};
    double vdd = 0.0;        ///< the detector's supply, part of the surrogate key
    bool surrogate = false;  ///< the surrogate key describes this read
    const char* read_name = "";  ///< which read failed to settle ("DC", "FVC")
    const char* unit = "";       ///< the converted value's unit
    const char* tol_unit = "";   ///< the expected-value tolerance's unit
};

bool MeasurementController::run_checked(const CheckedRead& q,
                                        const rfabm::rf::MonotoneCurve& cal,
                                        std::optional<double> expected, DetectorReading& m,
                                        double& value) {
    MeasurementDiagnostics& d = m.diag;
    if (flow_admission_rejects(d)) return false;
    // Two-tier serving: an in-envelope, in-budget surrogate hit needs none of
    // the scan/select/liveness machinery below — those checks guard the
    // physical read path, which a served reading never exercises.
    if (q.surrogate && surrogate_serve(q.quantity, q.vdd, &m.vout, &m.surrogate_bound)) {
        m.from_surrogate = true;
        m.settled = true;
        value = cal.invert(m.vout);
        d.status = MeasurementStatus::kOk;
        d.detail = "served by surrogate surface";
        return true;
    }
    const RetryPolicy& policy = options_.retry;
    double backoff = policy.backoff_s;
    const int attempts = std::max(1, policy.max_retries + 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        // 0. Campaign cancellation/deadline: stop before spending a (re)try.
        if (options_.cancel.stop_requested()) {
            d.suspect = SuspectedFault::kCancelled;
            d.status = options_.cancel.deadline_expired() ? MeasurementStatus::kTimedOut
                                                          : MeasurementStatus::kFailed;
            d.detail = options_.cancel.stop_reason();
            return false;
        }
        if (attempt > 0) {
            d.retries = attempt;
            if (engine_ready_ && backoff > 0.0) {
                try {
                    chip_.engine().run_for(backoff);
                    d.backoff_s_total += backoff;
                } catch (const circuit::ConvergenceError&) {
                    // The engine is wedged; open_session() below re-solves.
                } catch (const circuit::SolveAborted&) {
                    // Token fired during the dwell; the loop-top poll exits.
                }
                backoff *= policy.backoff_factor;
            }
        }
        // 1. Scan-chain integrity: IDCODE must read back correctly before we
        //    trust anything shifted through TDI/TDO.
        if (!verify_scan_chain()) {
            d.suspect = SuspectedFault::kScanChain;
            d.detail = "IDCODE readback mismatch";
            continue;
        }
        // 2. (Re)open the session and read.  The solver never aborts the
        //    pipeline: non-convergence is recorded and retried.
        const std::uint64_t edges_before = chip_.fvc_edges();
        try {
            open_session();
            ++d.reopened_sessions;
            if (options_.lint_before_measure) {
                set_select(q.word);
                lint::Report preflight;
                lint_preflight(q.word, preflight);
                if (preflight.has_errors()) {
                    // A statically-detectable configuration defect: reject
                    // immediately instead of burning retries on transient
                    // reads that cannot succeed.
                    d.suspect = SuspectedFault::kConfigLint;
                    d.status = MeasurementStatus::kFailed;
                    d.detail = first_lint_error(preflight);
                    return false;
                }
            }
            m.vout = q.read();
            m.settled = last_settled_;
        } catch (const circuit::SolveAborted& e) {
            // The supervisor pulled the plug mid-solve.  A watchdog deadline
            // on our token maps to kTimedOut; anything else is a campaign
            // cancel.  Either way the token stays fired — retrying is
            // pointless, so stop immediately.
            d.suspect = SuspectedFault::kCancelled;
            d.status = options_.cancel.deadline_expired() ? MeasurementStatus::kTimedOut
                                                          : MeasurementStatus::kFailed;
            d.detail = e.what();
            return false;
        } catch (const circuit::ConvergenceError& e) {
            if (e.non_finite()) {
                // NaN/Inf is deterministic arithmetic poison: a retry reruns
                // the exact same blow-up, so fail fast with the located
                // diagnosis instead of burning the budget.
                d.suspect = SuspectedFault::kNonFinite;
                d.status = MeasurementStatus::kNonFinite;
                d.detail = e.what();
                return false;
            }
            d.suspect = SuspectedFault::kConvergence;
            d.detail = e.what();
            continue;
        }
        // 3. Select-path integrity: the latched word must match what we wrote.
        if (!verify_select(q.word)) {
            d.suspect = SuspectedFault::kSelectPath;
            d.detail = "select-bus readback mismatch";
            continue;
        }
        // 4. Non-settling fallback: one extended-window re-read before
        //    burning a whole retry on it.  Both window lengths double; each
        //    read uses only its own.
        if (!m.settled) {
            const MeasureOptions saved = options_;
            options_.max_windows *= 2;
            options_.cycles_per_window *= 2;
            options_.freq_cycles_per_window *= 2;
            try {
                m.vout = q.read();
                m.settled = last_settled_;
            } catch (const circuit::ConvergenceError&) {
                m.settled = false;
            } catch (const circuit::SolveAborted&) {
                m.settled = false;  // loop-top poll turns this into kCancelled
            }
            options_ = saved;
            if (m.settled) {
                d.fallback_used = true;
                d.fallback = "extended settle window";
            } else {
                d.suspect = SuspectedFault::kNonSettling;
                d.detail = std::string(q.read_name) +
                           " read did not settle within the window budget";
                continue;
            }
        }
        // 5. Plausibility: the detector must be alive, ...
        if (std::string finding = q.alive(chip_.fvc_edges() - edges_before);
            !finding.empty()) {
            d.suspect = SuspectedFault::kSignalPath;
            d.detail = std::move(finding);
            continue;
        }
        // ... with its routes opened (detectors kept powered) both ATAP pins
        // must go dead — a pin still alive points at a switch stuck closed,
        // invisible to the select readback, which only sees the latched
        // control bits ...
        {
            set_select(static_cast<std::uint8_t>(q.word & ~q.routes));
            const double v1 = liveness_read(chip_.at1());
            const double v2 = liveness_read(chip_.at2());
            set_select(q.word);
            if (std::fabs(v1) >= policy.liveness_min_v ||
                std::fabs(v2) >= policy.liveness_min_v) {
                std::ostringstream os;
                os << "analog bus not isolated when muted (v(AT1) = " << v1
                   << " V, v(AT2) = " << v2 << " V): switch stuck closed?";
                d.suspect = SuspectedFault::kSignalPath;
                d.detail = os.str();
                continue;
            }
        }
        // ... and the reading must be credible against the calibration curve.
        if (cal.valid()) {
            const YRange range = curve_y_range(cal);
            const double margin = policy.range_margin * range.span();
            if (m.vout < range.lo - margin || m.vout > range.hi + margin) {
                std::ostringstream os;
                os << "Vout = " << m.vout << " V outside calibration range [" << range.lo
                   << ", " << range.hi << "] V";
                d.suspect = SuspectedFault::kSignalPath;
                d.detail = os.str();
                continue;
            }
            value = cal.invert(m.vout);
            // The expected-stimulus cross-check runs in the stimulus domain:
            // the power curve is steep at the top and nearly flat at the
            // bottom, so a volt-domain tolerance would wave through huge
            // low-power errors (a dead detector is only ~0.08 V off).
            if (expected) {
                const double tol = policy.expected_tol * (cal.x_max() - cal.x_min());
                if (std::fabs(value - *expected) > tol) {
                    std::ostringstream os;
                    os << "measured " << value << " " << q.unit << " deviates from expected "
                       << *expected << " " << q.unit << " (tolerance " << tol << " "
                       << q.tol_unit << ")";
                    d.suspect = SuspectedFault::kSignalPath;
                    d.detail = os.str();
                    continue;
                }
            }
        }
        // Success.  d.suspect keeps whatever was suspected on failed attempts
        // as context for the Degraded verdict.
        d.status = (d.retries > 0 || d.fallback_used) ? MeasurementStatus::kDegraded
                                                      : MeasurementStatus::kOk;
        if (d.status == MeasurementStatus::kDegraded && d.detail.empty()) {
            d.detail = "succeeded after retry";
        }
        // Only a first-try clean read trains the surface: a Degraded value
        // already tripped a check once and is not fit to serve others.
        if (q.surrogate && d.status == MeasurementStatus::kOk) {
            surrogate_observe(q.quantity, q.vdd, m.vout);
        }
        return true;
    }
    // Budget exhausted.  A plausibility failure still carries a best-effort
    // value (Degraded); infrastructure failures carry none worth trusting.
    if (cal.valid()) value = cal.invert(m.vout);
    d.status = d.suspect == SuspectedFault::kSignalPath ? MeasurementStatus::kDegraded
                                                        : MeasurementStatus::kFailed;
    return false;
}

PowerMeasurement MeasurementController::measure_power_checked(
    const rfabm::rf::MonotoneCurve& cal, std::optional<double> expected_dbm) {
    CheckedRead q;
    q.word = select_word(
        {SelectBit::kOutPlusToAb1, SelectBit::kOutMinusToAb2, SelectBit::kDetectorPower});
    q.routes = select_word({SelectBit::kOutPlusToAb1, SelectBit::kOutMinusToAb2});
    q.read = [this] { return measure_power_vout(); };
    // Both detector outputs must be electrically alive: a floating ATAP pin
    // reads near 0 through the DMM load.
    q.alive = [this](std::uint64_t) {
        const double v1 = liveness_read(chip_.at1());
        const double v2 = liveness_read(chip_.at2());
        const double min_v = options_.retry.liveness_min_v;
        std::ostringstream os;
        if (std::fabs(v1) < min_v || std::fabs(v2) < min_v) {
            os << "ATAP pin liveness check failed (v(AT1) = " << v1 << " V, v(AT2) = "
               << v2 << " V)";
        }
        return os.str();
    };
    q.quantity = rf::surrogate::Quantity::kPowerVout;
    q.vdd = chip_.conditions().vdd_pdet;
    q.surrogate = true;
    q.read_name = "DC";
    q.unit = "dBm";
    q.tol_unit = "dB";
    PowerMeasurement m;
    run_checked(q, cal, expected_dbm, m, m.dbm);
    return m;
}

FrequencyMeasurement MeasurementController::measure_frequency_checked(
    const rfabm::rf::MonotoneCurve& cal, bool use_fin, std::optional<double> expected_ghz) {
    FrequencyMeasurement m;
    CheckedRead q;
    q.word = use_fin ? select_word({SelectBit::kFdetToAb1, SelectBit::kDetectorPower,
                                    SelectBit::kInputSelectFin})
                     : select_word({SelectBit::kFdetToAb1, SelectBit::kDetectorPower});
    q.routes = select_word({SelectBit::kFdetToAb1});
    q.read = [this, use_fin] { return measure_freq_vout(use_fin); };
    // Liveness for a frequency read is clock activity at the FVC input.
    q.alive = [&m](std::uint64_t edges) {
        m.edges = edges;
        std::ostringstream os;
        if (edges < 8) os << "FVC clock inactive (" << edges << " edges during the read)";
        return os.str();
    };
    q.quantity = rf::surrogate::Quantity::kFreqVout;
    q.vdd = chip_.conditions().vdd_fdet;
    // The fin path measures a different input, whose frequency the
    // surrogate key does not describe.
    q.surrogate = !use_fin;
    q.read_name = "FVC";
    q.unit = "GHz";
    q.tol_unit = "GHz";
    m.valid = run_checked(q, cal, expected_ghz, m, m.ghz);
    return m;
}

}  // namespace rfabm::core
