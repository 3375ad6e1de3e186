#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "circuit/process.hpp"
#include "circuit/transient.hpp"
#include "core/calibration.hpp"
#include "core/chip.hpp"
#include "core/environment.hpp"
#include "core/measurement.hpp"
#include "exec/calibration_cache.hpp"
#include "exec/campaign.hpp"
#include "exec/journal.hpp"
#include "exec/resilient.hpp"
#include "host_clock.hpp"
#include "lint/flow/cache.hpp"
#include "lint/flow/parser.hpp"
#include "lint/flow/program.hpp"
#include "rf/random.hpp"
#include "rf/surrogate/store.hpp"
#include "trace.hpp"

namespace cellbench {

using namespace rfabm;

const char* to_string(Workload workload) {
    switch (workload) {
        case Workload::kPowerSweep: return "power_sweep";
        case Workload::kDieScreen: return "die_screen";
        case Workload::kRetestWarm: return "retest_warm";
    }
    return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
    for (const Workload w : {Workload::kPowerSweep, Workload::kDieScreen, Workload::kRetestWarm}) {
        if (name == to_string(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

namespace {

std::vector<double> grid(double first, double step, int count) {
    std::vector<double> out;
    for (int i = 0; i < count; ++i) out.push_back(first + step * i);
    return out;
}

}  // namespace

ReadCost read_cost(const EngineMark& before, const EngineMark& after, int reopened_sessions) {
    ReadCost c;
    c.newton = after.newton - before.newton;
    if (reopened_sessions > 0) {
        c.steps = after.steps;
        c.sim_s = after.time;
    } else {
        c.steps = after.steps - before.steps;
        c.sim_s = after.time - before.time;
    }
    return c;
}

namespace {

constexpr double kCarrierHz = 1.5e9;
constexpr double kFreqDriveDbm = 6.0;  ///< above the prescaler's +5 dBm floor
constexpr double kPowerGateDb = 3.0;
constexpr double kFreqGateGhz = 0.1;
constexpr std::size_t kMinPasses = 2;  ///< every run compares two pass digests
constexpr std::size_t kSeededDies = 1;  ///< Monte-Carlo dies beside the nominal one

// The nominal reference: a power curve at 1.5 GHz and a frequency curve at
// +6 dBm, on a DC-calibrated nominal chip.
const std::vector<double> kRefDbm = grid(-21.0, 3.0, 10);  // -21 .. +6 dBm
const std::vector<double> kRefGhz = grid(0.9, 0.3, 5);     // 0.9 .. 2.1 GHz

// power_sweep: the -19..+6 dBm sweep split over the two corners of each
// die (corner 0 nominal, 1 hot), and one FVC spot check per corner.
const std::vector<double> kSweepDbm[] = {{-19.0, -7.0, 6.0}, {-13.0, -1.0}};
constexpr double kSpotGhz[] = {1.35, 1.65};

// die_screen: the checked frequency of each corner, then a power spot check.
constexpr double kScreenDbm = -7.0;
constexpr double kScreenGhz[] = {1.35, 1.65};

// retest_warm: the training grid, and reads per quantity per cell inside
// and outside the trained envelope.
const std::vector<double> kTrainDbm = grid(-16.0, 1.5, 8);  // -16 .. -5.5 dBm
const std::vector<double> kTrainGhz = grid(1.3, 0.05, 9);   // 1.3 .. 1.7 GHz
constexpr std::size_t kRetestIn = 6;
constexpr std::size_t kRetestOut = 2;

using DieCal = exec::DieCalibration;

std::vector<core::OperatingConditions> corners() {
    core::OperatingConditions hot;
    hot.temperature_c = 70.0;
    hot.vdd_pdet = core::kNominalVddPdet + 0.25;
    hot.vdd_fdet = core::kNominalVddFdet + 0.30;
    return {core::nominal_conditions(), hot};
}

/// Runs the host-speed slice from inside transient solves.
class SliceObserver final : public circuit::StepObserver {
  public:
    explicit SliceObserver(HostClock& clock) : clock_(clock) {}
    void on_step(double, const circuit::Solution&, circuit::Circuit&) override { clock_.poll(); }

  private:
    HostClock& clock_;
};

struct Dut {
    std::unique_ptr<core::RfAbmChip> chip;
    std::unique_ptr<core::MeasurementController> ctl;
    std::uint64_t cell = 0;
    bool nominal_die = false;
};

enum class Quantity { kPower, kFreq };

/// Timed-phase accounting.
struct Tally {
    std::uint64_t reads = 0, ok = 0, served = 0, fallback = 0;
    std::uint64_t newton = 0, steps = 0, tck = 0, select_bits = 0;
    double sim_s = 0.0;
    double power_err_max = 0.0;  ///< nominal die
    double freq_err_max = 0.0;   ///< nominal die
    std::uint64_t reopens = 0, retries = 0, degraded = 0;
    std::uint64_t sessions = 0, session_dc_newton = 0;
    std::vector<double> sim_ns;  ///< every read
    std::uint64_t traced_newton = 0;  ///< in reads of traced passes
};

struct PassStat {
    std::uint64_t reads = 0;
    double normalized_s = 0.0;
    bool traced = false;
};

/// A surrogate retest point: where to read and whether it is expected to be
/// served (inside the trained envelope) or to fall back to a full solve.
struct RetestCell {
    std::vector<double> in_dbm, in_ghz, out_dbm, out_ghz;
};

class Runner {
  public:
    explicit Runner(const RunOptions& options)
        : opt_(options), tracer_(clock_, options.trace), observer_(clock_) {
        clock_.set_enabled(options.sampler);
        clock_.set_slice_hook([this](double start, double end) {
            tracer_.record("host.slice", start, end);
        });
    }

    // The slice hook and the step observer hold this runner's address.
    Runner(const Runner&) = delete;
    Runner& operator=(const Runner&) = delete;

    RunResult run();

  private:
    // --- infrastructure ------------------------------------------------------
    std::unique_ptr<core::RfAbmChip> make_chip(const core::OperatingConditions& env,
                                               const circuit::ProcessCorner& corner) {
        auto chip = std::make_unique<core::RfAbmChip>(config_, env, corner);
        if (opt_.sampler) chip->engine().add_observer(&observer_);
        return chip;
    }
    std::uint64_t cell_id(std::size_t d, std::size_t e) const {
        return (static_cast<std::uint64_t>(pass_ + 1) << 16) | (d << 8) | e;
    }
    core::SurrogateBinding binding(rf::surrogate::SurrogateStore* store, std::size_t d,
                                   std::size_t e, bool serve) const {
        core::SurrogateBinding b;
        b.store = store;
        b.serve = serve;
        exec::FieldHasher die;
        die.mix(exec::hash_chip_config(config_)).mix(exec::hash_corner(dies_[d]));
        b.die = die.value();
        exec::FieldHasher corner;
        corner.mix(envs_[e].temperature_c);
        b.corner = corner.value();
        return b;
    }
    void fail(std::string why) { errors_.push_back(std::move(why)); }

    // --- calls into the layers, timed from outside ----------------------------
    void acquire_reference();
    DieCal calibrate_die(const circuit::ProcessCorner& corner, std::uint64_t cell);
    DieCal cached_calibration(exec::CalibrationCache& cache, std::size_t d);
    Dut open_dut(const DieCal& cal, std::size_t e, core::MeasureOptions mopts, std::uint64_t cell,
                 bool nominal_die);
    template <class M, class F>
    M read(Dut& dut, Quantity q, double applied, std::vector<double>& payload, F&& call);
    void read_power(Dut& dut, double dbm, std::vector<double>& payload);
    void read_freq(Dut& dut, double ghz, std::vector<double>& payload);

    // --- workloads -------------------------------------------------------------
    void setup();
    std::vector<double> run_pass();
    std::vector<double> power_sweep_pass();
    std::vector<double> die_screen_pass();
    std::vector<double> retest_pass();
    void train_store();
    std::vector<double> flatten(const std::vector<std::vector<std::vector<double>>>& slots) const;

    std::vector<Metric> end_to_end(const Interval& setup, const Interval& timed) const;
    std::vector<Metric> per_layer() const;
    std::vector<Metric> host(const Interval& setup, const Interval& timed) const;

    RunOptions opt_;
    HostClock clock_;
    Tracer tracer_;
    SliceObserver observer_;
    core::RfAbmChipConfig config_{};

    rf::MonotoneCurve power_curve_;
    rf::MonotoneCurve freq_curve_;
    DieCal nominal_cal_;

    std::vector<circuit::ProcessCorner> dies_;  ///< index 0 is the nominal die
    bool reuse_reference_cal_ = false;  ///< die 0 takes the reference's DC calibration
    std::vector<core::OperatingConditions> envs_ = corners();

    exec::CampaignMetrics metrics_;
    exec::CalibrationCache warm_cache_;
    lint::flow::CampaignProgram program_;
    lint::flow::FlowLintCache lint_cache_;
    exec::JournalStats journal_;
    rf::surrogate::StoreOptions store_options_;
    std::string store_image_;
    std::vector<std::vector<RetestCell>> retest_;
    std::uint64_t expect_served_ = 0, expect_fallback_ = 0;
    rf::surrogate::StoreCounters surrogate_;

    std::uint64_t cache_hits_ = 0, cache_misses_ = 0;  ///< timed phase
    bool timed_ = false;
    std::size_t pass_ = 0;
    Tally tally_;
    std::vector<PassStat> pass_stats_;
    std::vector<double> cal_newton_;
    std::vector<int> served_spans_;  ///< core.read spans of served reads
    std::vector<std::string> errors_;
};

void Runner::acquire_reference() {
    ScopedSpan span(tracer_, "setup.reference", 0);
    auto chip = make_chip(core::nominal_conditions(), {});
    core::MeasurementController ctl(*chip);
    {
        ScopedSpan s(tracer_, "core.session", 0);
        ctl.open_session();
    }
    {
        ScopedSpan s(tracer_, "core.calibrate", 0);
        const std::uint64_t n0 = chip->engine().newton_iterations();
        const core::DcCalibration cal = core::dc_calibrate(ctl);
        cal_newton_.push_back(static_cast<double>(chip->engine().newton_iterations() - n0));
        nominal_cal_ = DieCal{{}, cal.tune_p.bench_volts, cal.tune_f.bench_volts};
    }
    {
        ScopedSpan s(tracer_, "core.curve", 0);
        power_curve_ = core::acquire_power_curve(ctl, kRefDbm, kCarrierHz);
    }
    {
        ScopedSpan s(tracer_, "core.curve", 0);
        freq_curve_ = core::acquire_frequency_curve(ctl, kRefGhz, kFreqDriveDbm);
    }
}

DieCal Runner::calibrate_die(const circuit::ProcessCorner& corner, std::uint64_t cell) {
    ScopedSpan span(tracer_, "core.calibrate", cell);
    auto chip = make_chip(core::nominal_conditions(), corner);
    core::MeasurementController ctl(*chip);
    ctl.open_session();
    const core::DcCalibration cal = core::dc_calibrate(ctl);
    cal_newton_.push_back(static_cast<double>(chip->engine().newton_iterations()));
    return DieCal{corner, cal.tune_p.bench_volts, cal.tune_f.bench_volts};
}

DieCal Runner::cached_calibration(exec::CalibrationCache& cache, std::size_t d) {
    return cache.get_or_compute(config_, dies_[d], [&] {
        // The reference already DC-calibrated the nominal die.
        if (d == 0 && reuse_reference_cal_) return nominal_cal_;
        return calibrate_die(dies_[d], cell_id(d, 0));
    });
}

Dut Runner::open_dut(const DieCal& cal, std::size_t e, core::MeasureOptions mopts,
                     std::uint64_t cell, bool nominal_die) {
    ScopedSpan span(tracer_, "core.session", cell);
    Dut dut;
    dut.cell = cell;
    dut.nominal_die = nominal_die;
    dut.chip = make_chip(envs_[e], cal.corner);
    dut.ctl = std::make_unique<core::MeasurementController>(*dut.chip, std::move(mopts));
    const std::uint64_t n0 = dut.chip->engine().newton_iterations();
    dut.ctl->open_session();
    const std::uint64_t dc_newton = dut.chip->engine().newton_iterations() - n0;
    dut.ctl->apply_tune_p(cal.tune_p);
    dut.ctl->apply_tune_f(cal.tune_f);
    if (timed_) {
        ++tally_.sessions;
        tally_.session_dc_newton += dc_newton;
    }
    return dut;
}

template <class M, class F>
M Runner::read(Dut& dut, Quantity q, double applied, std::vector<double>& payload, F&& call) {
    circuit::TransientEngine& eng = dut.chip->engine();
    const EngineMark before{eng.newton_iterations(), eng.steps_taken(), eng.time()};
    const std::uint64_t tck0 = dut.chip->tap_driver().tck_count();
    const std::uint64_t sel0 = dut.chip->select_bus().bit_count();
    clock_.poll();
    M m;
    int span = -1;
    {
        ScopedSpan s(tracer_, "core.read", dut.cell);
        span = s.index();
        m = call();
    }
    const EngineMark after{eng.newton_iterations(), eng.steps_taken(), eng.time()};

    double value = 0.0;
    bool valid = m.settled;
    if constexpr (std::is_same_v<M, core::PowerMeasurement>) {
        value = m.dbm;
    } else {
        value = m.ghz;
        valid = valid && m.valid;
    }
    payload.push_back(m.vout);
    payload.push_back(value);
    if (!timed_) return m;

    const double err = std::fabs(value - applied);
    const bool in_gate = err <= (q == Quantity::kPower ? kPowerGateDb : kFreqGateGhz);
    const ReadCost cost = read_cost(before, after, m.diag.reopened_sessions);
    Tally& t = tally_;
    ++t.reads;
    if (valid && m.diag.ok() && in_gate) ++t.ok;
    if (m.from_surrogate) {
        ++t.served;
    } else {
        ++t.fallback;
    }
    t.newton += cost.newton;
    t.steps += cost.steps;
    t.sim_s += cost.sim_s;
    t.sim_ns.push_back(cost.sim_s * 1e9);
    t.tck += dut.chip->tap_driver().tck_count() - tck0;
    t.select_bits += dut.chip->select_bus().bit_count() - sel0;
    t.reopens += static_cast<std::uint64_t>(m.diag.reopened_sessions);
    t.retries += static_cast<std::uint64_t>(m.diag.retries);
    if (m.diag.status == core::MeasurementStatus::kDegraded) ++t.degraded;
    if (dut.nominal_die) {
        double& worst = q == Quantity::kPower ? t.power_err_max : t.freq_err_max;
        worst = std::max(worst, std::isfinite(err) ? err : 1e9);
    }
    if (span >= 0) {
        t.traced_newton += cost.newton;
        if (m.from_surrogate) served_spans_.push_back(span);
    }
    return m;
}

void Runner::read_power(Dut& dut, double dbm, std::vector<double>& payload) {
    dut.chip->set_rf(dbm, kCarrierHz);
    read<core::PowerMeasurement>(dut, Quantity::kPower, dbm, payload,
                                 [&] { return dut.ctl->measure_power(power_curve_); });
}

void Runner::read_freq(Dut& dut, double ghz, std::vector<double>& payload) {
    dut.chip->set_rf(kFreqDriveDbm, ghz * 1e9);
    read<core::FrequencyMeasurement>(dut, Quantity::kFreq, ghz, payload,
                                     [&] { return dut.ctl->measure_frequency(freq_curve_); });
}

std::vector<double> Runner::flatten(
    const std::vector<std::vector<std::vector<double>>>& slots) const {
    std::vector<double> out;  // die-major, corner-minor
    for (const auto& die : slots) {
        for (const auto& cell : die) out.insert(out.end(), cell.begin(), cell.end());
    }
    return out;
}

// --- set-up ------------------------------------------------------------------

void Runner::setup() {
    acquire_reference();
    rf::Xoshiro256 rng(opt_.seed);
    std::vector<circuit::ProcessCorner> mc;
    for (std::size_t i = 0; i < kSeededDies; ++i) mc.push_back(circuit::sample_corner(rng));

    switch (opt_.workload) {
        case Workload::kPowerSweep: {
            reuse_reference_cal_ = true;
            dies_.push_back({});
            dies_.insert(dies_.end(), mc.begin(), mc.end());
            ScopedSpan span(tracer_, "setup.calibrate", 0);
            warm_cache_.attach_metrics(&metrics_);
            for (std::size_t d = 0; d < dies_.size(); ++d) (void)cached_calibration(warm_cache_, d);
            break;
        }
        case Workload::kDieScreen: {
            // The nominal die is screened too (and recalibrated every pass):
            // it carries the error metrics, the seeded dies the spread.
            dies_.push_back({});
            dies_.insert(dies_.end(), mc.begin(), mc.end());
            lint::Report report;
            if (!lint::flow::parse_program_file(opt_.program_path, program_, report)) {
                throw std::runtime_error("cannot parse admission program " + opt_.program_path);
            }
            break;
        }
        case Workload::kRetestWarm: {
            reuse_reference_cal_ = true;
            dies_.push_back({});
            {
                ScopedSpan span(tracer_, "setup.calibrate", 0);
                warm_cache_.attach_metrics(&metrics_);
                (void)cached_calibration(warm_cache_, 0);
            }
            train_store();
            break;
        }
    }
}

void Runner::train_store() {
    // Fit each key once it holds its training sweep; the default (24
    // samples) would triple the training reads in set-up.
    store_options_.refit_min_samples = kTrainDbm.size();
    store_image_ = opt_.out_dir + "/retest_warm.sur";
    rf::surrogate::SurrogateStore store(store_options_);
    {
        ScopedSpan span(tracer_, "setup.train", 0);
        std::vector<exec::DieChain> chains(dies_.size());
        for (std::size_t d = 0; d < dies_.size(); ++d) {
            for (std::size_t e = 0; e < envs_.size(); ++e) {
                chains[d].measurements.push_back({[this, &store, d, e](exec::TaskContext&) {
                    core::MeasureOptions mopts;
                    mopts.surrogate = binding(&store, d, e, /*serve=*/false);
                    Dut dut = open_dut(cached_calibration(warm_cache_, d), e, mopts,
                                       cell_id(d, e), d == 0);
                    std::vector<double> ignored;
                    for (const double p : kTrainDbm) read_power(dut, p, ignored);
                    for (const double f : kTrainGhz) read_freq(dut, f, ignored);
                }});
            }
        }
        exec::CampaignOptions copts;
        copts.metrics = &metrics_;
        {
            ScopedSpan s(tracer_, "exec.campaign", 0);
            (void)exec::run_campaign(chains, copts);
        }
        // Close the generation: refit every surface over its full population.
        (void)store.merge_from({});
    }
    const std::size_t keys = 2 * dies_.size() * envs_.size();
    if (store.surfaces() != keys) {
        fail("training fitted " + std::to_string(store.surfaces()) + " of " +
             std::to_string(keys) + " surfaces");
    }
    {
        ScopedSpan span(tracer_, "rf.surrogate.save", 0);
        if (!store.save(store_image_)) throw std::runtime_error("cannot save " + store_image_);
    }

    // Seeded retest points: in-envelope ones uniformly inside the training
    // span, out-of-envelope ones 1.5-3 dB / 50-100 MHz below it (still
    // inside the reference curves, so every read stays gradeable).
    rf::Xoshiro256 rng(opt_.seed ^ 0x5EEDF00DULL);
    auto uniform = [&rng](double lo, double hi) { return lo + (hi - lo) * rng.uniform(); };
    const double p_lo = kTrainDbm.front(), p_hi = kTrainDbm.back();
    const double f_lo = kTrainGhz.front(), f_hi = kTrainGhz.back();
    const double p_pad = 0.05 * (p_hi - p_lo), f_pad = 0.05 * (f_hi - f_lo);
    retest_.assign(dies_.size(), std::vector<RetestCell>(envs_.size()));
    for (auto& die : retest_) {
        for (RetestCell& c : die) {
            for (std::size_t i = 0; i < kRetestIn; ++i) {
                c.in_dbm.push_back(uniform(p_lo + p_pad, p_hi - p_pad));
                c.in_ghz.push_back(uniform(f_lo + f_pad, f_hi - f_pad));
            }
            for (std::size_t i = 0; i < kRetestOut; ++i) {
                c.out_dbm.push_back(uniform(p_lo - 3.0, p_lo - 1.5));
                c.out_ghz.push_back(uniform(f_lo - 0.10, f_lo - 0.05));
            }
            expect_served_ += 2 * kRetestIn;
            expect_fallback_ += 2 * kRetestOut;
        }
    }
}

// --- timed passes --------------------------------------------------------------

std::vector<double> Runner::run_pass() {
    switch (opt_.workload) {
        case Workload::kPowerSweep: return power_sweep_pass();
        case Workload::kDieScreen: return die_screen_pass();
        case Workload::kRetestWarm: return retest_pass();
    }
    return {};
}

std::vector<double> Runner::power_sweep_pass() {
    std::vector<std::vector<std::vector<double>>> slots(
        dies_.size(), std::vector<std::vector<double>>(envs_.size()));
    std::vector<exec::DieChain> chains(dies_.size());
    for (std::size_t d = 0; d < dies_.size(); ++d) {
        chains[d].calibrate = [this, d](exec::TaskContext&) {
            (void)cached_calibration(warm_cache_, d);
        };
        for (std::size_t e = 0; e < envs_.size(); ++e) {
            chains[d].measurements.push_back({[this, &slots, d, e](exec::TaskContext&) {
                Dut dut = open_dut(cached_calibration(warm_cache_, d), e, {}, cell_id(d, e),
                                   d == 0);
                std::vector<double>& payload = slots[d][e];
                for (const double p : kSweepDbm[e]) read_power(dut, p, payload);
                read_freq(dut, kSpotGhz[e], payload);
            }});
        }
    }
    exec::CampaignOptions copts;
    copts.metrics = &metrics_;
    ScopedSpan span(tracer_, "exec.campaign", 0);
    (void)exec::run_campaign(chains, copts);
    return flatten(slots);
}

std::vector<double> Runner::die_screen_pass() {
    // A fresh floor run: nothing calibrated yet, a fresh journal.
    exec::CalibrationCache cache;
    cache.attach_metrics(&metrics_);
    const std::string journal = opt_.out_dir + "/die_screen.wal";
    std::remove(journal.c_str());
    exec::FieldHasher id;
    id.mix(opt_.seed).mix(static_cast<std::uint64_t>(dies_.size()));

    std::vector<std::vector<std::vector<double>>> slots(
        dies_.size(), std::vector<std::vector<double>>(envs_.size()));
    std::vector<exec::ResilientChain> chains(dies_.size());
    for (std::size_t d = 0; d < dies_.size(); ++d) {
        chains[d].calibrate = [this, &cache, d](exec::TaskContext&) {
            (void)cached_calibration(cache, d);
        };
        for (std::size_t e = 0; e < envs_.size(); ++e) {
            exec::ResilientCell cell;
            cell.key = exec::CellKey{static_cast<std::uint32_t>(d), static_cast<std::uint32_t>(e),
                                     0};
            cell.compute = [this, &cache, d, e](const exec::CellAttempt& attempt) {
                core::MeasureOptions mopts;
                mopts.admission_program = &program_;
                mopts.admission_cache = &lint_cache_;
                mopts.cancel = attempt.token;
                Dut dut = open_dut(cached_calibration(cache, d), e, mopts, cell_id(d, e), d == 0);
                exec::CellComputeResult out;
                const double ghz = kScreenGhz[e];
                dut.chip->set_rf(kFreqDriveDbm, ghz * 1e9);
                const auto fm = read<core::FrequencyMeasurement>(
                    dut, Quantity::kFreq, ghz, out.payload, [&] {
                        return dut.ctl->measure_frequency_checked(freq_curve_, false, ghz);
                    });
                dut.chip->set_rf(kScreenDbm, kCarrierHz);
                const auto pm = read<core::PowerMeasurement>(
                    dut, Quantity::kPower, kScreenDbm, out.payload, [&] {
                        return dut.ctl->measure_power_checked(power_curve_, kScreenDbm);
                    });
                const bool clean = pm.diag.status == core::MeasurementStatus::kOk &&
                                   fm.diag.status == core::MeasurementStatus::kOk;
                out.outcome = clean ? exec::CellOutcome::kOk : exec::CellOutcome::kDegraded;
                return out;
            };
            cell.deliver = [&slots, d, e](const std::vector<double>& payload, exec::CellOutcome,
                                          bool) { slots[d][e] = payload; };
            chains[d].cells.push_back(std::move(cell));
        }
    }
    exec::CampaignOptions copts;
    copts.metrics = &metrics_;
    exec::ResilienceOptions ropts;
    ropts.journal_path = journal;
    ropts.campaign_id = id.value();
    exec::ResilientResult result;
    {
        ScopedSpan span(tracer_, "exec.campaign", 0);
        result = exec::run_resilient_campaign(chains, copts, ropts);
    }
    const exec::JournalStats& js = result.triage.journal;
    journal_.records_written += js.records_written;
    journal_.bytes_written += js.bytes_written;
    journal_.fsyncs += js.fsyncs;

    // The journal must hold exactly what the campaign delivered in memory.
    const exec::JournalReplay replay = exec::replay_journal(journal, id.value());
    std::size_t matched = 0;
    for (const exec::CellRecord& rec : replay.cells) {
        if (rec.key.die < dies_.size() && rec.key.env < envs_.size() &&
            rec.payload == slots[rec.key.die][rec.key.env]) {
            ++matched;
        }
    }
    if (matched != dies_.size() * envs_.size() || replay.cells.size() != matched) {
        fail("journal payloads differ from in-memory results in pass " + std::to_string(pass_));
    }
    std::remove(journal.c_str());
    return flatten(slots);
}

std::vector<double> Runner::retest_pass() {
    rf::surrogate::SurrogateStore store(store_options_);
    {
        ScopedSpan span(tracer_, "rf.surrogate.load", 0);
        if (!store.load(store_image_)) throw std::runtime_error("cannot load " + store_image_);
    }
    const std::uint64_t served0 = tally_.served, fallback0 = tally_.fallback;
    std::vector<std::vector<std::vector<double>>> slots(
        dies_.size(), std::vector<std::vector<double>>(envs_.size()));
    std::vector<exec::DieChain> chains(dies_.size());
    for (std::size_t d = 0; d < dies_.size(); ++d) {
        chains[d].calibrate = [this, d](exec::TaskContext&) {
            (void)cached_calibration(warm_cache_, d);
        };
        for (std::size_t e = 0; e < envs_.size(); ++e) {
            chains[d].measurements.push_back({[this, &slots, &store, d, e](exec::TaskContext&) {
                core::MeasureOptions mopts;
                mopts.surrogate = binding(&store, d, e, /*serve=*/true);
                Dut dut = open_dut(cached_calibration(warm_cache_, d), e, mopts, cell_id(d, e),
                                   d == 0);
                const RetestCell& c = retest_[d][e];
                std::vector<double>& payload = slots[d][e];
                for (const double p : c.in_dbm) read_power(dut, p, payload);
                for (const double f : c.in_ghz) read_freq(dut, f, payload);
                for (const double p : c.out_dbm) read_power(dut, p, payload);
                for (const double f : c.out_ghz) read_freq(dut, f, payload);
            }});
        }
    }
    exec::CampaignOptions copts;
    copts.metrics = &metrics_;
    {
        ScopedSpan span(tracer_, "exec.campaign", 0);
        (void)exec::run_campaign(chains, copts);
    }
    {
        ScopedSpan span(tracer_, "rf.surrogate.save", 0);
        const std::string scratch = opt_.out_dir + "/retest_warm.pass.sur";
        if (!store.save(scratch)) throw std::runtime_error("cannot save " + scratch);
        std::remove(scratch.c_str());
    }
    const rf::surrogate::StoreCounters c = store.counters();
    surrogate_.hits += c.hits;
    surrogate_.misses += c.misses;
    surrogate_.out_of_envelope += c.out_of_envelope;
    surrogate_.bound_too_loose += c.bound_too_loose;
    surrogate_.observed += c.observed;
    surrogate_.refits += c.refits;
    const std::uint64_t served = tally_.served - served0, fallback = tally_.fallback - fallback0;
    if (served != expect_served_ || fallback != expect_fallback_) {
        fail("pass " + std::to_string(pass_) + " served " + std::to_string(served) + " and fell back " +
             std::to_string(fallback) + ", generated split is " + std::to_string(expect_served_) +
             "/" + std::to_string(expect_fallback_));
    }
    return flatten(slots);
}

// --- metrics ------------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image.  VmHWM, not getrusage(): the
/// kernel carries ru_maxrss across exec, so a child of a larger launcher
/// (python3 run.py) would report the launcher's size.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

std::vector<Metric> Runner::end_to_end(const Interval& setup, const Interval& timed) const {
    const Tally& t = tally_;
    const double reads = static_cast<double>(t.reads);
    return {
        {"setup_s", setup.normalized_s, "s"},
        {"reads_per_s", ratio(reads, timed.normalized_s), "1/s"},
        {"sim_ns_per_read", ratio(t.sim_s * 1e9, reads), "ns"},
        {"power_err_db_max", t.power_err_max, "dB"},
        {"freq_err_ghz_max", t.freq_err_max, "GHz"},
        {"ok_read_frac", ratio(static_cast<double>(t.ok), reads), "fraction"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

std::vector<Metric> Runner::host(const Interval& setup, const Interval& timed) const {
    const std::vector<double>& log = clock_.slice_log();
    const double mean = log.empty() ? 0.0
                                    : std::accumulate(log.begin(), log.end(), 0.0) /
                                          static_cast<double>(log.size());
    const double wall = setup.wall_s + timed.wall_s;
    return {
        {"host.slice_ms_mean", mean * 1e3, "ms"},
        {"host.slice_ms_p10", percentile(log, 10.0) * 1e3, "ms"},
        {"host.slow_factor", mean / clock_.options().nominal_s, "ratio"},
        {"host.sampler_share", ratio(setup.slice_s + timed.slice_s, wall), "fraction"},
        {"host.raw_reads_per_s", ratio(static_cast<double>(tally_.reads), timed.program_s), "1/s"},
        {"host.raw_setup_s", setup.program_s, "s"},
    };
}

std::vector<Metric> Runner::per_layer() const {
    const Tally& t = tally_;
    const double reads = static_cast<double>(t.reads);

    // Layer timings are the traced spans, normalized like every host-time
    // figure; shares are ratios of raw program time inside traced passes
    // (root span "pass").
    const std::vector<Span>& spans = tracer_.spans();
    const std::vector<double> self = tracer_.self_program_s();
    auto normalized = [&](const Span& s) { return clock_.normalized(s.start_s, s.end_s); };
    std::vector<int> root(spans.size());
    double pass_s = 0.0, read_s = 0.0, cal_s = 0.0, session_s = 0.0;
    double campaign_s = 0.0, campaign_self_s = 0.0;
    double reference_s = 0.0, train_s = 0.0, read_normalized_s = 0.0;
    std::vector<double> cal_norm_s, read_ms, session_ms, load_ms, save_ms, serve_us;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        root[i] = s.parent < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(s.parent)];
        // Set-up spans and the calibrations of set-up and passes alike.
        if (s.name == "setup.reference") reference_s += normalized(s);
        if (s.name == "setup.train") train_s += normalized(s);
        if (s.name == "core.calibrate") cal_norm_s.push_back(normalized(s));
        if (spans[static_cast<std::size_t>(root[i])].name != "pass") continue;
        const double p = s.program_s();
        if (s.name == "pass") pass_s += p;
        if (s.name == "core.read") {
            read_s += p;
            read_normalized_s += normalized(s);
            read_ms.push_back(normalized(s) * 1e3);
        }
        if (s.name == "core.calibrate") cal_s += p;
        if (s.name == "core.session") {
            session_s += p;
            session_ms.push_back(normalized(s) * 1e3);
        }
        if (s.name == "rf.surrogate.load") load_ms.push_back(normalized(s) * 1e3);
        if (s.name == "rf.surrogate.save") save_ms.push_back(normalized(s) * 1e3);
        if (s.name == "exec.campaign") {
            campaign_s += p;
            campaign_self_s += self[i];
        }
    }
    for (const int i : served_spans_) {
        serve_us.push_back(normalized(spans[static_cast<std::size_t>(i)]) * 1e6);
    }
    double untraced_reads = 0.0, untraced_s = 0.0, traced_reads = 0.0, traced_s = 0.0;
    for (const PassStat& p : pass_stats_) {
        (p.traced ? traced_reads : untraced_reads) += static_cast<double>(p.reads);
        (p.traced ? traced_s : untraced_s) += p.normalized_s;
    }
    const double overhead =
        (ratio(untraced_reads, untraced_s) / ratio(traced_reads, traced_s) - 1.0) * 100.0;

    const Tail read_tail = tail_percentile(read_ms);
    const Tail sim_tail = tail_percentile(t.sim_ns);
    const lint::flow::FlowLintCache::Stats lint = lint_cache_.stats();
    const rf::surrogate::StoreCounters& sc = surrogate_;

    return {
        {"circuit.newton_per_read", ratio(static_cast<double>(t.newton), reads), "count"},
        {"circuit.steps_per_read", ratio(static_cast<double>(t.steps), reads), "count"},
        {"circuit.newton_per_step", ratio(static_cast<double>(t.newton), static_cast<double>(t.steps)),
         "count"},
        {"circuit.us_per_newton", ratio(read_normalized_s * 1e6, static_cast<double>(t.traced_newton)),
         "us"},
        {"circuit.dc_newton_per_session",
         ratio(static_cast<double>(t.session_dc_newton), static_cast<double>(t.sessions)), "count"},
        {"core.read.count", reads, "count"},
        {"core.read.ms_p50", median(read_ms), "ms"},
        {"core.read.ms_tail", read_tail.value, "ms"},
        {"core.read.tail_pct", read_tail.pct, "pct"},
        {"core.read.tail_samples", static_cast<double>(read_tail.samples), "count"},
        {"core.read.sim_ns_p50", median(t.sim_ns), "ns"},
        {"core.read.sim_ns_tail", sim_tail.value, "ns"},
        {"core.read.share", ratio(read_s, pass_s), "fraction"},
        {"core.calibrate.count", static_cast<double>(cal_newton_.size()), "count"},
        {"core.calibrate.s_p50", median(cal_norm_s), "s"},
        {"core.calibrate.newton_p50", median(cal_newton_), "count"},
        {"core.calibrate.share", ratio(cal_s, pass_s), "fraction"},
        {"core.reference.s", reference_s, "s"},
        {"core.session.count", static_cast<double>(t.sessions), "count"},
        {"core.session.ms_p50", median(session_ms), "ms"},
        {"core.session.share", ratio(session_s, pass_s), "fraction"},
        {"core.checked.reopens", static_cast<double>(t.reopens), "count"},
        {"core.checked.retries", static_cast<double>(t.retries), "count"},
        {"core.checked.degraded", static_cast<double>(t.degraded), "count"},
        {"jtag.tck_per_read", ratio(static_cast<double>(t.tck), reads), "count"},
        {"jtag.select_bits_per_read", ratio(static_cast<double>(t.select_bits), reads), "count"},
        {"lint.admit.hits", static_cast<double>(lint.hits), "count"},
        {"lint.admit.misses", static_cast<double>(lint.misses), "count"},
        {"rf.surrogate.hits", static_cast<double>(sc.hits), "count"},
        {"rf.surrogate.out_of_envelope", static_cast<double>(sc.out_of_envelope), "count"},
        {"rf.surrogate.misses", static_cast<double>(sc.misses), "count"},
        {"rf.surrogate.observed", static_cast<double>(sc.observed), "count"},
        {"rf.surrogate.refits", static_cast<double>(sc.refits), "count"},
        {"rf.surrogate.served_frac", ratio(static_cast<double>(t.served), reads), "fraction"},
        {"rf.surrogate.serve_us_p50", median(serve_us), "us"},
        {"rf.surrogate.load_ms", median(load_ms), "ms"},
        {"rf.surrogate.save_ms", median(save_ms), "ms"},
        {"rf.surrogate.train_s", train_s, "s"},
        {"exec.campaign.self_share", ratio(campaign_self_s, campaign_s), "fraction"},
        {"exec.cal_cache.hits", static_cast<double>(cache_hits_), "count"},
        {"exec.cal_cache.misses", static_cast<double>(cache_misses_), "count"},
        {"exec.journal.records", static_cast<double>(journal_.records_written), "count"},
        {"exec.journal.bytes", static_cast<double>(journal_.bytes_written), "bytes"},
        {"exec.journal.fsyncs", static_cast<double>(journal_.fsyncs), "count"},
        {"trace.overhead_pct", overhead, "%"},
    };
}

// --- the run ---------------------------------------------------------------------

RunResult Runner::run() {
    RunResult out;
    const HostClock::Mark setup_mark = clock_.mark();
    setup();
    const Interval setup_iv = clock_.since(setup_mark);

    timed_ = true;
    const exec::CampaignMetrics::Snapshot m0 = metrics_.snapshot();
    const HostClock::Mark timed_mark = clock_.mark();
    std::string first;
    for (pass_ = 0;; ++pass_) {
        const double elapsed = clock_.now() - timed_mark.wall;
        if (pass_ >= kMinPasses && elapsed >= opt_.seconds) break;
        // A traced run leaves its first pass untraced, so one process
        // compares both digests and measures the tracing overhead.
        const bool traced = opt_.trace && pass_ > 0;
        tracer_.set_enabled(traced);
        const std::uint64_t reads0 = tally_.reads;
        const HostClock::Mark pass_mark = clock_.mark();
        std::vector<double> payload;
        {
            ScopedSpan span(tracer_, "pass", 0);
            payload = run_pass();
        }
        const Interval pass_iv = clock_.since(pass_mark);
        pass_stats_.push_back({tally_.reads - reads0, pass_iv.normalized_s, traced});
        const std::string digest = Digest().add(payload).hex();
        if (first.empty()) {
            first = digest;
        } else if (digest != first) {
            fail("pass " + std::to_string(pass_) + (traced ? " (traced)" : "") + " digest " +
                 digest + " differs from pass 0 digest " + first);
        }
    }
    const Interval timed_iv = clock_.since(timed_mark);
    tracer_.set_enabled(opt_.trace);
    const exec::CampaignMetrics::Snapshot m1 = metrics_.snapshot();
    cache_hits_ = m1.cache_hits - m0.cache_hits;
    cache_misses_ = m1.cache_misses - m0.cache_misses;

    out.passes = pass_;
    out.digest = first;
    out.attempted = tally_.reads;
    out.failed = tally_.reads - tally_.ok;
    out.end_to_end = end_to_end(setup_iv, timed_iv);
    out.host = host(setup_iv, timed_iv);
    if (opt_.trace) {
        out.per_layer = per_layer();
        out.per_layer.insert(out.per_layer.end(), out.host.begin(), out.host.end());
        const std::string path = opt_.out_dir + "/trace_" + to_string(opt_.workload) + "_" +
                                 std::to_string(opt_.seed) + ".json";
        if (!tracer_.write_chrome_json(path)) fail("cannot write " + path);
    }
    if (tally_.reads == 0) fail("no reads in the timed phase");
    out.errors = errors_;
    out.correct = errors_.empty();
    return out;
}

}  // namespace

RunResult run_workload(const RunOptions& options) { return Runner(options).run(); }

}  // namespace cellbench
