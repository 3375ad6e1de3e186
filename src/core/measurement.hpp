// The measurement controller: the paper's external control unit.
//
// Drives a full 1149.4 measurement session against an RfAbmChip:
//   1. open_session(): TAP reset, PROBE instruction, boundary scan putting
//      the TBIC into the connect pattern (AT1-AB1, AT2-AB2) while the RF-pin
//      ABM keeps its mission path (PROBE's defining property),
//   2. serial select words routing detector outputs / tuning inputs through
//      the .4 MUX,
//   3. tuning-voltage programming through AT2 -> TBIC -> AB2 -> MUX,
//   4. settled DC reads of the ATAP pins (the bench DMM),
//   5. conversion through a calibration curve into dBm / GHz.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/chip.hpp"
#include "exec/cancellation.hpp"
#include "lint/abm_rules.hpp"
#include "lint/diagnostics.hpp"
#include "rf/curve.hpp"
#include "rf/surrogate/store.hpp"

namespace rfabm::lint::flow {
struct CampaignProgram;
class FlowLintCache;
}  // namespace rfabm::lint::flow

namespace rfabm::core {

/// Overall verdict of a hardened (checked) measurement.
enum class MeasurementStatus {
    kOk,        ///< all integrity and plausibility checks passed first try
    kDegraded,  ///< a value was produced, but only after retries/fallbacks,
                ///< or a plausibility check flags it as untrustworthy
    kFailed,    ///< no trustworthy value could be produced within the budget
    kTimedOut,  ///< a watchdog deadline reclaimed the measurement mid-solve
    kNonFinite, ///< the solver produced NaN/Inf — deterministic, not retried
};
const char* to_string(MeasurementStatus status);

/// Fault class the hardened pipeline suspects when a check trips.
enum class SuspectedFault {
    kNone,         ///< nothing suspicious observed
    kScanChain,    ///< IDCODE readback mismatch (TDI/TDO/TCK wiring)
    kSelectPath,   ///< serial select-bus readback mismatch
    kConvergence,  ///< the circuit solver failed to converge
    kSignalPath,   ///< analog path implausible (dead pin, out-of-range Vout)
    kNonSettling,  ///< the DC read never settled within the window budget
    kConfigLint,   ///< the pre-measurement static lint found hard errors
    kCancelled,    ///< the campaign's cancellation token / deadline fired
    kNonFinite,    ///< the solver produced a NaN/Inf unknown (located in detail)
};
const char* to_string(SuspectedFault fault);

/// Bounded-retry policy of the hardened measurement pipeline.  Backoff is
/// extra simulated settle time inserted before each retry (the bench
/// equivalent of "wait longer and try again"), growing geometrically.
struct RetryPolicy {
    int max_retries = 2;          ///< retries after the first attempt
    double backoff_s = 50e-9;     ///< first retry's extra settle dwell
    double backoff_factor = 2.0;  ///< dwell multiplier per further retry
    double liveness_min_v = 0.1;  ///< min |v(ATAP)| for a live detector pin
    double range_margin = 0.10;   ///< curve-range slack, fraction of y-span
    double expected_tol = 0.20;   ///< expected-value slack, fraction of y-span
};

/// What the hardened pipeline did and concluded: every retry, fallback and
/// suspicion is recorded here instead of being thrown as an exception.
struct MeasurementDiagnostics {
    MeasurementStatus status = MeasurementStatus::kOk;
    SuspectedFault suspect = SuspectedFault::kNone;
    int retries = 0;              ///< attempts beyond the first
    int reopened_sessions = 0;    ///< 1149.4 sessions (re)opened during the read
    double backoff_s_total = 0.0; ///< simulated settle time added by backoff
    bool fallback_used = false;   ///< a degraded-mode fallback produced the value
    std::string fallback;         ///< which fallback succeeded (when used)
    std::string detail;           ///< human-readable description of the finding

    bool ok() const {
        return status == MeasurementStatus::kOk || status == MeasurementStatus::kDegraded;
    }
    /// One-line summary, e.g. for logs and campaign reports.
    std::string to_string() const;
};

/// What every detector reading carries, whichever quantity it converts.
struct DetectorReading {
    double vout = 0.0;              ///< raw settled detector output (V)
    bool settled = true;            ///< the settled read converged
    bool from_surrogate = false;    ///< served by the surrogate tier, no solve
    double surrogate_bound = 0.0;   ///< |vout error| bound when served (V)
    MeasurementDiagnostics diag{};  ///< populated by the checked pipeline
};

/// A converted power reading.
struct PowerMeasurement : DetectorReading {
    double dbm = 0.0;  ///< estimated input power
};

/// A converted frequency reading.
struct FrequencyMeasurement : DetectorReading {
    double ghz = 0.0;         ///< estimated input frequency
    std::uint64_t edges = 0;  ///< FVC clock activity during the read
    bool valid = false;       ///< edges seen and read settled
};

/// Read-through binding of a controller to the two-tier surrogate store.
/// When `store` is set, measure_power()/measure_frequency() (and their
/// checked variants) first ask the store for the settled Vout at the current
/// operating point — (Pin dBm, f Hz, VDD) under (die, corner) — and serve a
/// hit without touching the transient solver.  Any non-hit (miss, query
/// outside the fitted envelope, bound over budget) falls back to the full
/// solve, whose settled result is fed back via observe() so the surface
/// (re)fits.  The store outlives the controller (not owned) and is shared
/// across the campaign's workers.
struct SurrogateBinding {
    rf::surrogate::SurrogateStore* store = nullptr;
    std::uint64_t die = 0;     ///< process-identity hash (see exec::hash_corner)
    std::uint64_t corner = 0;  ///< environment hash (temperature etc.)
    /// Completed-generation rule (docs/surrogate.md): a campaign training a
    /// fresh store binds with serve=false — full solves still feed observe(),
    /// but no query is answered from a surface whose envelope this same run
    /// is still extending (a freshly widened envelope edge has no held-out
    /// evidence, so its residual can exceed the published bound).  Serving
    /// turns on when a saved generation — always refit over its full
    /// population before persisting — is loaded.
    bool serve = true;
};

/// Settle/read tuning knobs.
struct MeasureOptions {
    int cycles_per_window = 12;   ///< averaging window, in stimulus periods
    double rel_tol = 2e-4;
    double abs_tol = 20e-6;
    int max_windows = 600;
    int lookback = 3;             ///< drift check span (windows)
    int freq_cycles_per_window = 8;  ///< window in divided-clock periods
    RetryPolicy retry{};          ///< hardened-pipeline retry/backoff knobs
    /// Run the static analyzer (ERC + 1149.4 switch/select rules) after the
    /// session is opened and reject the measurement on hard errors, before
    /// any transient read is attempted.
    bool lint_before_measure = false;
    /// Campaign-level admission: when set, every checked measurement first
    /// runs the flow-sensitive scan-program lint (lint/flow) over this
    /// program and rejects with kConfigLint on flow errors — before the TAP
    /// is touched or any retry budget is spent.  The program outlives the
    /// controller (not owned).
    const lint::flow::CampaignProgram* admission_program = nullptr;
    /// Optional incremental cache for the flow admission, shared across
    /// measurements/controllers so an unchanged program is a hash lookup.
    lint::flow::FlowLintCache* admission_cache = nullptr;
    /// Campaign cancellation/deadline token.  The checked pipeline polls it
    /// before the first attempt and before every retry: once it fires, the
    /// measurement stops early with status kFailed / suspect kCancelled
    /// instead of burning the remaining retry budget.  Default token never
    /// fires.
    exec::CancellationToken cancel{};
    /// Two-tier serving: consult this surrogate store before any transient
    /// solve and feed full-solve results back into it.  Default (null store)
    /// leaves every measurement byte-identical to the pre-surrogate path.
    SurrogateBinding surrogate{};
};

/// The lint-facing description of the paper's ".4 MUX" select word (see
/// core/mux4.hpp for the bit layout).
lint::SelectBusModel mux4_select_model();

/// Drives measurements on one chip instance.
class MeasurementController {
  public:
    explicit MeasurementController(RfAbmChip& chip, MeasureOptions options = {});

    /// TAP + TBIC + select-bus session setup; initializes the transient
    /// engine (DC operating point with the test topology in place).
    void open_session();

    /// Process-wide hook invoked at the end of every open_session(), with a
    /// running session count.  The kCrashPoint fault injector uses it to
    /// kill the process exactly at a TAP session boundary — after the chip
    /// holds session state but before any measurement of the session is
    /// journaled.  Pass nullptr to clear.  Not thread-safe against
    /// concurrent open_session() calls; install before the campaign starts.
    static void set_session_open_hook(void (*hook)(std::uint64_t));

    /// Program the .4 MUX select register verbatim (include
    /// SelectBit::kDetectorPower in the word to keep the detectors powered).
    void set_select(std::uint8_t word);

    /// Program a tuning voltage through the analog bus and park it on the
    /// external hold DAC.  Returns the voltage actually latched at the pin.
    double apply_tune_p(double volts);
    double apply_tune_f(double volts);

    /// Settled average of v(AT1) (single-ended read).
    double read_at1();
    /// Settled average of v(AT1) - v(AT2) (differential read).
    double read_diff();

    /// Select the power-detector outputs and read Vout = VoutN - VoutP,
    /// zeroed against the RF-muted tare reading (standard detector bench
    /// practice: the generator is muted once per session to record the
    /// residual offset, which is subtracted from every reading).
    double measure_power_vout();

    /// Re-acquire the tare (RF-muted) reading; invalidated automatically by
    /// tuning changes.
    double tare_power();
    /// Select the FVC output and read it (uses the RF path unless
    /// @p use_fin).
    double measure_freq_vout(bool use_fin = false);

    /// Full conversions through calibration curves (power: dBm -> V curve,
    /// frequency: GHz -> V curve; both inverted here).
    PowerMeasurement measure_power(const rfabm::rf::MonotoneCurve& calibration);
    FrequencyMeasurement measure_frequency(const rfabm::rf::MonotoneCurve& calibration,
                                           bool use_fin = false);

    // --- hardened pipeline --------------------------------------------------
    // The checked variants never throw on infrastructure trouble.  Both run
    // one loop (run_checked) over a per-quantity description of the read.
    // Each attempt verifies the scan chain (IDCODE readback), re-opens the
    // 1149.4 session, reads, verifies the select-bus readback, and
    // sanity-checks the value: detector liveness (ATAP pin levels for power,
    // FVC clock edges for frequency), bus isolation with the detector's
    // routes opened, calibration range and expected stimulus.  Failures
    // retry with exponential backoff per options().retry; the outcome and
    // every fallback taken land in the result's .diag.

    /// Reset the TAP and verify the IDCODE readback against the chip config.
    /// Leaves the TAP out of PROBE: the session must be re-opened afterwards.
    bool verify_scan_chain();

    /// True when every latched select-bus output matches @p word.
    bool verify_select(std::uint8_t word) const;

    /// Hardened power measurement.  @p expected_dbm (when the applied
    /// stimulus is known, as on a production tester) enables the
    /// expected-value cross-check.
    PowerMeasurement measure_power_checked(const rfabm::rf::MonotoneCurve& calibration,
                                           std::optional<double> expected_dbm = std::nullopt);

    /// Hardened frequency measurement (see measure_power_checked).
    FrequencyMeasurement measure_frequency_checked(
        const rfabm::rf::MonotoneCurve& calibration, bool use_fin = false,
        std::optional<double> expected_ghz = std::nullopt);

    /// The admission guard's static checks for select word @p word: chip ERC,
    /// ABM/TBIC switch-state rules, select-word contention rules, and the
    /// .4-MUX-vs-latched-select cross-check.  Appends to @p report and
    /// returns the number of findings.  Called automatically by the checked
    /// measurements when options().lint_before_measure is set.
    std::size_t lint_preflight(std::uint8_t word, lint::Report& report);

    RfAbmChip& chip() { return chip_; }
    bool session_open() const { return session_open_; }
    const MeasureOptions& options() const { return options_; }

    /// Outcome of this controller's most recent surrogate consultation
    /// (kMiss before any consultation or when no store is bound).  The
    /// bound store's counters() carry the campaign-wide tallies.
    rf::surrogate::Decision last_surrogate_decision() const { return last_surrogate_; }

  private:
    /// What the checked loop needs to know about one detector quantity.
    struct CheckedRead;
    /// The checked loop shared by measure_power_checked and
    /// measure_frequency_checked.  Fills @p m and @p value (the reading
    /// converted through @p cal); returns true when a value passed every
    /// check or was served by the surrogate tier.
    bool run_checked(const CheckedRead& read, const rfabm::rf::MonotoneCurve& cal,
                     std::optional<double> expected, DetectorReading& m, double& value);
    /// Campaign-level flow admission (options().admission_program).  Fills
    /// @p d and returns true when the campaign is statically rejected.
    bool flow_admission_rejects(MeasurementDiagnostics& d);
    double settle_read(circuit::NodeId p, circuit::NodeId n, double period, int cycles,
                       bool* settled);
    double apply_tune(double volts, SelectBit bit, circuit::NodeId pin,
                      void (RfAbmChip::*hold_setter)(double));
    /// Coarse, cheaply-bounded single-ended read for the pin-liveness check.
    double liveness_read(circuit::NodeId pin);
    /// The current operating point as a surrogate query, or nullopt when the
    /// RF stimulus is unknown (surrogate keys are meaningless without it).
    std::optional<rf::surrogate::Query> surrogate_query(double vdd) const;
    /// Tier-1 attempt: true (and fills *vout/*bound) only on a hit.
    bool surrogate_serve(rf::surrogate::Quantity quantity, double vdd, double* vout,
                         double* bound);
    /// Tier-2 feedback: hand a settled full-solve Vout to the bound store.
    void surrogate_observe(rf::surrogate::Quantity quantity, double vdd, double vout);

    RfAbmChip& chip_;
    MeasureOptions options_;
    bool session_open_ = false;
    bool engine_ready_ = false;  ///< engine().init() has run at least once
    std::uint8_t select_ = 0;
    bool last_settled_ = true;
    bool tare_valid_ = false;
    double tare_ = 0.0;
    rf::surrogate::Decision last_surrogate_ = rf::surrogate::Decision::kMiss;
};

}  // namespace rfabm::core
