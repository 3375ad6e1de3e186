// Shared experiment-harness machinery for the per-figure/per-table benches.
//
// Every evaluation experiment in the paper follows the same protocol:
//   1. acquire the "simulated response" — calibration curves measured on the
//      nominal device at nominal conditions (the paper's reference),
//   2. DC-calibrate each device-under-test once, at nominal conditions,
//      through the 1149.4 bus (tuneP / tunef),
//   3. re-measure that device across environmental corners using the nominal
//      reference curves,
//   4. report the error against the known bench truth.
// The "with process variation" series uses Monte-Carlo dies; the "without"
// series uses the nominal die.  All randomness is seeded and deterministic.
//
// Execution model: the (die x environment) grid is a measurement campaign on
// the src/exec engine — each die DC-calibrates once (memoized in a
// calibration cache), then its per-corner measurements fan out across a
// work-stealing thread pool.  --jobs 1 runs the identical cells inline in
// the historical serial order; results are bit-identical for any worker
// count because every cell owns a private chip instance and its own result
// slot (see docs/parallel.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/process.hpp"
#include "core/calibration.hpp"
#include "core/chip.hpp"
#include "core/environment.hpp"
#include "core/measurement.hpp"
#include "exec/calibration_cache.hpp"
#include "exec/campaign.hpp"
#include "exec/resilient.hpp"
#include "exec/shard.hpp"
#include "rf/curve.hpp"
#include "rf/surrogate/store.hpp"

namespace rfabm::bench {

/// Harness-wide options, parsed from argv (--fast, --seed N, --dies N,
/// --jobs N, --out FILE, ...) and the RFABM_FAST / RFABM_JOBS environment
/// variables.
struct HarnessOptions {
    bool fast = false;
    std::uint64_t seed = 20050307;  // DATE'05 session date, why not
    std::size_t monte_carlo_dies = 5;
    /// Worker threads for the campaign engine: 0 = hardware concurrency,
    /// 1 = the historical serial path.
    std::size_t jobs = 0;
    /// --out FILE: where a bench that records a BENCH_*.json writes it
    /// (empty: the bench's own default file).
    std::string out_path;

    // --- resilience flags (docs/resilience.md) ------------------------------
    /// --journal FILE: write-ahead journal of completed cells.  A bench that
    /// runs several campaigns numbers the later files FILE.1, FILE.2, ...
    std::string journal_path;
    /// --resume: replay an existing journal and re-run only missing cells.
    bool resume = false;
    /// --watchdog-ms N: per-attempt stall timeout (0 = no supervision).
    double watchdog_ms = 0.0;
    /// --triage FILE: append one TriageReport JSON line per campaign.
    std::string triage_path;
    /// --max-attempts N: attempts per cell before quarantine.
    int max_cell_attempts = 2;
    /// --watchdog-auto: derive the per-cell stall timeout from the observed
    /// heartbeat cadence (EWMA x safety factor) instead of --watchdog-ms.
    bool watchdog_auto = false;

    // --- sharding flags (docs/sharding.md) ----------------------------------
    /// --shards N: this process is one shard of an N-way campaign; only dies
    /// with exec::shard_of_die(die, N) == shard_index are measured, and the
    /// journal lands in exec::shard_journal_path(journal, shard_index) so a
    /// coordinator can merge the shard journals deterministically.
    std::size_t shard_count = 1;
    /// --shard-index I: which shard this process runs (0-based).
    std::size_t shard_index = 0;

    // --- two-tier surrogate serving (docs/surrogate.md) ---------------------
    /// --surrogate FILE: enable the surrogate tier, persisted at FILE.  The
    /// store is loaded (and verified) at Exec construction and saved at
    /// destruction; measurements consult it before any transient solve and
    /// feed full-solve results back.  Sharded workers each persist to
    /// exec::shard_surrogate_path(FILE, I); the coordinator merges them
    /// (SurrogateStore::merge_from).  Empty = disabled: every measurement is
    /// bit-identical to the pre-surrogate path.
    std::string surrogate_path;
    /// --surrogate-max-bound V: serve only surfaces whose published error
    /// bound is at or under this budget, in volts (<= 0 disables the check);
    /// out-of-budget surfaces fall back to full simulation.
    double surrogate_max_bound = 20e-3;

    /// The store file THIS process reads/writes (shard-suffixed when this
    /// process is one shard of a fleet).
    std::string surrogate_store_path() const {
        if (surrogate_path.empty() || shard_count <= 1) return surrogate_path;
        return rfabm::exec::shard_surrogate_path(surrogate_path,
                                                 static_cast<std::uint32_t>(shard_index));
    }

    /// Any resilience feature requested?  Campaigns then run through
    /// exec::run_resilient_campaign instead of the bare task graph.  Sharded
    /// runs are always resilient: the merge contract needs a journal.
    bool resilient() const {
        return !journal_path.empty() || watchdog_ms > 0.0 || !triage_path.empty() ||
               watchdog_auto || shard_count > 1;
    }

    /// jobs with 0 resolved to the hardware concurrency (min 1).
    std::size_t effective_jobs() const;

    /// Environmental corners to sweep (nominal first).
    std::vector<core::OperatingConditions> envs() const;
    /// Monte-Carlo dies (nominal corner NOT included).  Pre-sampled up
    /// front from the seed, so the population never depends on how the
    /// measurements are scheduled.
    std::vector<circuit::ProcessCorner> dies() const;
};

/// Parse the harness flags.  An unknown flag, or one missing its value,
/// prints a usage line and exits 2.
HarnessOptions parse_options(int argc, char** argv);

/// The nominal reference: curves measured on the nominal device, plus its
/// tuning voltages.
struct NominalReference {
    rfabm::rf::MonotoneCurve power_curve;  ///< dBm -> Vout at the band centre
    rfabm::rf::MonotoneCurve freq_curve;   ///< GHz -> Vout on the RF path
    double carrier_hz = 1.5e9;
};

/// Acquire the reference on a freshly built nominal chip.
NominalReference acquire_reference(const core::RfAbmChipConfig& config,
                                   const std::vector<double>& powers_dbm,
                                   const std::vector<double>& freqs_ghz, double carrier_hz,
                                   double freq_power_dbm = 6.0);

/// One DUT's one-time DC calibration state (the control unit's DAC values).
/// The canonical definition lives with the exec-layer calibration cache.
using DieCalibration = rfabm::exec::DieCalibration;

/// Run the paper's one-time DC calibration of a die at nominal conditions.
/// @p newton_iterations (when given) receives the solver iterations spent.
DieCalibration calibrate_die(const core::RfAbmChipConfig& config,
                             const circuit::ProcessCorner& corner,
                             std::uint64_t* newton_iterations = nullptr);

/// Build a chip session for a calibrated die at given conditions: opens the
/// 1149.4 session and programs the stored tuning voltages over the bus.
struct DutSession {
    DutSession(const core::RfAbmChipConfig& config, const DieCalibration& cal,
               const core::OperatingConditions& env, core::MeasureOptions options = {});

    core::RfAbmChip chip;
    core::MeasurementController controller;
};

/// Bit-exact payload codec between a bench's per-cell result type and the
/// journal's raw-double payload.  encode/decode MUST round-trip exactly
/// (store the doubles verbatim, no formatting): every campaign routes its
/// results through decode(encode(r)), fresh and replayed alike, which is
/// what makes a resumed run byte-identical.  Specialize per bench result
/// type (common shapes provided below).
template <class R>
struct JournalCodec;

template <>
struct JournalCodec<std::vector<double>> {
    static std::vector<double> encode(const std::vector<double>& v) { return v; }
    static std::vector<double> decode(const std::vector<double>& p) { return p; }
};

template <>
struct JournalCodec<std::vector<std::pair<bool, double>>> {
    static std::vector<double> encode(const std::vector<std::pair<bool, double>>& v) {
        std::vector<double> p;
        p.reserve(v.size() * 2);
        for (const auto& [ok, value] : v) {
            p.push_back(ok ? 1.0 : 0.0);
            p.push_back(value);
        }
        return p;
    }
    static std::vector<std::pair<bool, double>> decode(const std::vector<double>& p) {
        std::vector<std::pair<bool, double>> v;
        v.reserve(p.size() / 2);
        for (std::size_t i = 0; i + 1 < p.size(); i += 2) {
            v.emplace_back(p[i] != 0.0, p[i + 1]);
        }
        return v;
    }
};

/// Per-bench execution context: thread pool (campaigns), memoizing
/// calibration cache and campaign metrics.  One per bench run (or one per
/// timed phase, when the cache must not leak between phases).
class Exec {
  public:
    explicit Exec(const HarnessOptions& opts);
    ~Exec();

    rfabm::exec::CampaignMetrics& metrics() { return metrics_; }
    /// The campaign's surrogate store (null when --surrogate is not given).
    rfabm::rf::surrogate::SurrogateStore* surrogate() { return surrogate_.get(); }
    /// Read-through binding for one campaign cell: die keyed by (chip
    /// config, process corner), corner keyed by the environment's
    /// temperature — the supplies are surrogate model INPUTS (the query's
    /// VDD axis), not key components, so one surface interpolates across
    /// them.  Null-store binding when the surrogate tier is disabled.
    core::SurrogateBinding surrogate_binding(const core::RfAbmChipConfig& config,
                                             const circuit::ProcessCorner& corner,
                                             const core::OperatingConditions& env) const;
    /// Fold the store's counter growth since the last fold into the campaign
    /// metrics, and refresh the triage report's surrogate section.  The
    /// campaign drivers call this at end of run; benches that hand-roll
    /// their cells call it before reading metrics().
    void fold_surrogate_metrics();

    /// Memoized DC calibration of (config, corner).  @p token (when given)
    /// lets a waiter stop waiting on a failed leader (see CalibrationCache).
    DieCalibration calibrate(const core::RfAbmChipConfig& config,
                             const circuit::ProcessCorner& corner,
                             const rfabm::exec::CancellationToken& token = {});

    /// Run @p cell for every (die, env) on the engine: per die, a calibrate
    /// node (cache-memoized) fans out one measurement task per environment.
    /// Each task gets a fresh DutSession.  Results return in die-major,
    /// env-minor order — the historical serial order — regardless of worker
    /// count.
    ///
    /// When the harness options request resilience (--journal / --resume /
    /// --watchdog-ms / --triage), the campaign instead runs through
    /// exec::run_resilient_campaign: cells journal as they complete, resumes
    /// replay the journal bit-exactly through JournalCodec<R>, hung attempts
    /// are reclaimed by the watchdog, and repeat offenders are quarantined.
    template <class R>
    std::vector<R> map_die_env(
        const core::RfAbmChipConfig& config, const std::vector<circuit::ProcessCorner>& dies,
        const std::vector<core::OperatingConditions>& envs,
        const std::function<R(DutSession&, std::size_t die, std::size_t env)>& cell) {
        return map_grid<R>(config, memoized_dies(config, dies), envs, cell);
    }

    /// As map_die_env, but with explicitly supplied per-die calibrations
    /// (e.g. the no-DC-calibration ablation) — the cache is bypassed.
    template <class R>
    std::vector<R> map_die_env(
        const core::RfAbmChipConfig& config, const std::vector<DieCalibration>& cals,
        const std::vector<core::OperatingConditions>& envs,
        const std::function<R(DutSession&, std::size_t die, std::size_t env)>& cell) {
        return map_grid<R>(config, given_dies(cals), envs, cell);
    }

    /// Last resilient campaign's triage report (empty when not resilient).
    const rfabm::exec::TriageReport& last_triage() const { return last_triage_; }
    bool resilient() const { return resilient_; }

    /// One-line engine summary (workers, tasks, steals, cache, Newton).
    void print_summary() const;

    /// Print the last triage report (no-op when not resilient).  The JSON
    /// line was already appended to --triage FILE when the campaign ended.
    void print_triage() const;

  private:
    /// The die axis of a grid: where each die's tunes come from and what of
    /// them enters the campaign identity.
    struct GridDies {
        std::size_t count = 0;
        /// Die d's calibration; the token lets a cache waiter stop waiting.
        std::function<DieCalibration(std::size_t d, const rfabm::exec::CancellationToken&)>
            calibration;
        /// Memoized dies warm the cache in a per-die node before the fan-out,
        /// so corner measurements of one die never recalibrate concurrently.
        bool warm_first = false;
        /// Mixes the dies into the campaign identity.
        std::function<void(rfabm::exec::FieldHasher&)> identity;
    };
    GridDies memoized_dies(const core::RfAbmChipConfig& config,
                           const std::vector<circuit::ProcessCorner>& dies);
    static GridDies given_dies(const std::vector<DieCalibration>& cals);

    /// A grid cell's result as a journal payload, and the route by which a
    /// payload (fresh or replayed) reaches the cell's private result slot.
    using GridCell = std::function<std::vector<double>(DutSession&, std::size_t, std::size_t)>;
    using GridSink = std::function<void(const std::vector<double>&, std::size_t, std::size_t)>;

    /// The one grid path behind both map_die_env overloads: the plain task
    /// graph, or the resilient campaign when the options request it.
    void run_grid(const core::RfAbmChipConfig& config, const GridDies& dies,
                  const std::vector<core::OperatingConditions>& envs, const GridCell& cell,
                  const GridSink& sink);

    template <class R>
    std::vector<R> map_grid(const core::RfAbmChipConfig& config, const GridDies& dies,
                            const std::vector<core::OperatingConditions>& envs,
                            const std::function<R(DutSession&, std::size_t, std::size_t)>& cell) {
        std::vector<R> results(dies.count * envs.size());
        run_grid(
            config, dies, envs,
            [&cell](DutSession& dut, std::size_t d, std::size_t e) {
                return JournalCodec<R>::encode(cell(dut, d, e));
            },
            [&results, &envs](const std::vector<double>& payload, std::size_t d, std::size_t e) {
                results[d * envs.size() + e] = JournalCodec<R>::decode(payload);
            });
        return results;
    }

    HarnessOptions opts_;
    bool resilient_ = false;
    std::size_t jobs_ = 1;
    std::unique_ptr<rfabm::rf::surrogate::SurrogateStore> surrogate_;
    bool surrogate_serve_ = false;  ///< store held a completed generation at load
    rfabm::rf::surrogate::StoreCounters surrogate_folded_{};  ///< already in metrics_
    std::unique_ptr<rfabm::exec::ThreadPool> pool_;  ///< null when jobs == 1
    rfabm::exec::CalibrationCache cache_;
    rfabm::exec::CampaignMetrics metrics_;
    rfabm::exec::TriageReport last_triage_;
    std::size_t campaign_seq_ = 0;  ///< numbers journal files within one run
};

/// Simple aligned table printer for harness output.  All output (including
/// banner() and say()) serializes on one sink mutex, so worker-thread
/// progress lines never interleave mid-row.
class TablePrinter {
  public:
    explicit TablePrinter(std::vector<std::string> headers);
    void row(const std::vector<std::string>& cells);
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::size_t> widths_;
};

/// printf onto the shared sink, serialized against TablePrinter/banner —
/// safe from campaign worker threads (per-die progress streaming).
void say(const char* fmt, ...);

/// Acquire a power calibration curve but trim fold-over at the ends: deep
/// compression can make the raw Vout(P) characteristic non-monotone outside
/// the usable range, and a bench delimits the curve to the monotone core
/// around the band centre before using it.
rfabm::rf::MonotoneCurve acquire_trimmed_power_curve(core::MeasurementController& controller,
                                                     const std::vector<double>& powers_dbm,
                                                     double carrier_hz);

/// Print the standard harness banner.
void banner(const char* experiment, const char* paper_artifact, const HarnessOptions& opts);

}  // namespace rfabm::bench
