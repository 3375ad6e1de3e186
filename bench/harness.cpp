#include "bench/harness.hpp"

#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "exec/thread_pool.hpp"

namespace rfabm::bench {

namespace {

/// One sink mutex for every harness print path (tables, banner, say):
/// campaign workers stream progress while the main thread prints rows, and
/// lines must never interleave mid-row.
std::mutex& sink_mutex() {
    static std::mutex m;
    return m;
}

}  // namespace

std::size_t HarnessOptions::effective_jobs() const {
    if (jobs != 0) return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::vector<core::OperatingConditions> HarnessOptions::envs() const {
    std::vector<core::OperatingConditions> out;
    out.push_back(core::nominal_conditions());
    // Extreme combinations of the paper's ranges: T in {-10, 70} C,
    // supplies at -10% / +10% (tracking regulator).
    const std::vector<std::pair<double, double>> combos =
        fast ? std::vector<std::pair<double, double>>{{-10.0, -1.0}, {70.0, 1.0}}
             : std::vector<std::pair<double, double>>{
                   {-10.0, -1.0}, {-10.0, 1.0}, {70.0, -1.0}, {70.0, 1.0}};
    for (const auto& [t, s] : combos) {
        core::OperatingConditions c;
        c.temperature_c = t;
        c.vdd_pdet = core::kNominalVddPdet + 0.25 * s;
        c.vdd_fdet = core::kNominalVddFdet + 0.30 * s;
        out.push_back(c);
    }
    return out;
}

std::vector<circuit::ProcessCorner> HarnessOptions::dies() const {
    const std::size_t n = fast ? std::min<std::size_t>(monte_carlo_dies, 2) : monte_carlo_dies;
    rfabm::rf::Xoshiro256 rng(seed);
    std::vector<circuit::ProcessCorner> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(circuit::sample_corner(rng));
    return out;
}

HarnessOptions parse_options(int argc, char** argv) {
    const auto usage = [argv](const char* why, const char* what) {
        std::fprintf(stderr,
                     "%s: %s: %s\n"
                     "usage: %s [--fast] [--seed N] [--dies N] [--jobs N] [--out FILE]\n"
                     "       [--journal FILE] [--resume] [--watchdog-ms N] [--watchdog-auto]\n"
                     "       [--triage FILE] [--max-attempts N] [--shards N]\n"
                     "       [--shard-index I] [--surrogate FILE] [--surrogate-max-bound V]\n",
                     argv[0], why, what, argv[0]);
        std::exit(2);
    };
    HarnessOptions opts;
    if (const char* env = std::getenv("RFABM_FAST"); env != nullptr && env[0] == '1') {
        opts.fast = true;
    }
    if (const char* env = std::getenv("RFABM_JOBS"); env != nullptr && env[0] != '\0') {
        opts.jobs = std::strtoull(env, nullptr, 10);
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0) {
            opts.fast = true;
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--dies") == 0 && i + 1 < argc) {
            opts.monte_carlo_dies = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            opts.jobs = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
            opts.journal_path = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            opts.resume = true;
        } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
            opts.watchdog_ms = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--triage") == 0 && i + 1 < argc) {
            opts.triage_path = argv[++i];
        } else if (std::strcmp(argv[i], "--max-attempts") == 0 && i + 1 < argc) {
            opts.max_cell_attempts = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--watchdog-auto") == 0) {
            opts.watchdog_auto = true;
        } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            opts.shard_count = std::strtoull(argv[++i], nullptr, 10);
            if (opts.shard_count == 0) opts.shard_count = 1;
        } else if (std::strcmp(argv[i], "--shard-index") == 0 && i + 1 < argc) {
            opts.shard_index = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--surrogate") == 0 && i + 1 < argc) {
            opts.surrogate_path = argv[++i];
        } else if (std::strcmp(argv[i], "--surrogate-max-bound") == 0 && i + 1 < argc) {
            opts.surrogate_max_bound = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            opts.out_path = argv[++i];
        } else {
            // A typo'd flag must not silently run the full-length default.
            usage("unknown flag or missing value", argv[i]);
        }
    }
    // A shard outside the fleet owns no die: it would measure nothing and
    // still report success.
    if (opts.shard_index >= opts.shard_count) {
        usage("--shard-index must be below --shards",
              std::to_string(opts.shard_index).c_str());
    }
    return opts;
}

NominalReference acquire_reference(const core::RfAbmChipConfig& config,
                                   const std::vector<double>& powers_dbm,
                                   const std::vector<double>& freqs_ghz, double carrier_hz,
                                   double freq_power_dbm) {
    core::RfAbmChip chip{config};
    core::MeasurementController controller(chip);
    controller.open_session();
    core::dc_calibrate(controller);
    NominalReference ref;
    ref.carrier_hz = carrier_hz;
    ref.power_curve = core::acquire_power_curve(controller, powers_dbm, carrier_hz);
    ref.freq_curve = core::acquire_frequency_curve(controller, freqs_ghz, freq_power_dbm);
    return ref;
}

DieCalibration calibrate_die(const core::RfAbmChipConfig& config,
                             const circuit::ProcessCorner& corner,
                             std::uint64_t* newton_iterations) {
    core::RfAbmChip chip{config, core::nominal_conditions(), corner};
    core::MeasurementController controller(chip);
    controller.open_session();
    const core::DcCalibration cal = core::dc_calibrate(controller);
    if (newton_iterations != nullptr) *newton_iterations = chip.engine().newton_iterations();
    return DieCalibration{corner, cal.tune_p.bench_volts, cal.tune_f.bench_volts};
}

DutSession::DutSession(const core::RfAbmChipConfig& config, const DieCalibration& cal,
                       const core::OperatingConditions& env, core::MeasureOptions options)
    : chip(config, env, cal.corner), controller(chip, options) {
    controller.open_session();
    controller.apply_tune_p(cal.tune_p);
    controller.apply_tune_f(cal.tune_f);
}

Exec::Exec(const HarnessOptions& opts)
    : opts_(opts), resilient_(opts.resilient()), jobs_(opts.effective_jobs()) {
    cache_.attach_metrics(&metrics_);
    if (jobs_ > 1) {
        rfabm::exec::ThreadPool::Options popts;
        popts.workers = jobs_;
        pool_ = std::make_unique<rfabm::exec::ThreadPool>(popts);
    }
    if (!opts_.surrogate_path.empty()) {
        rfabm::rf::surrogate::StoreOptions sopts;
        sopts.max_bound = opts_.surrogate_max_bound;
        surrogate_ = std::make_unique<rfabm::rf::surrogate::SurrogateStore>(sopts);
        // A missing file is a cold start; a corrupt one is rejected whole by
        // load() (the store stays empty) and the campaign refits from full
        // simulation — either way the run proceeds.  Completed-generation
        // rule: only a loaded store serves (a saved store was refit over its
        // full population, so every in-envelope query is in-sample and the
        // published bound holds); a cold run trains without serving.
        (void)surrogate_->load(opts_.surrogate_store_path());
        surrogate_serve_ = surrogate_->surfaces() > 0;
    }
}

Exec::~Exec() {
    if (surrogate_) {
        // Close the generation: refit every surface over its full retained
        // population before persisting, so the next run serves in-sample.
        surrogate_->merge_from({});
        (void)surrogate_->save(opts_.surrogate_store_path());
    }
}

core::SurrogateBinding Exec::surrogate_binding(const core::RfAbmChipConfig& config,
                                               const circuit::ProcessCorner& corner,
                                               const core::OperatingConditions& env) const {
    core::SurrogateBinding b;
    if (!surrogate_) return b;
    b.store = surrogate_.get();
    b.serve = surrogate_serve_;
    rfabm::exec::FieldHasher die;
    die.mix(rfabm::exec::hash_chip_config(config));
    die.mix(rfabm::exec::hash_corner(corner));
    b.die = die.value();
    rfabm::exec::FieldHasher env_h;
    env_h.mix(env.temperature_c);
    b.corner = env_h.value();
    return b;
}

void Exec::fold_surrogate_metrics() {
    if (!surrogate_) return;
    const auto c = surrogate_->counters();
    metrics_.add_surrogate(c.hits - surrogate_folded_.hits,
                           c.misses - surrogate_folded_.misses,
                           c.out_of_envelope - surrogate_folded_.out_of_envelope,
                           c.bound_too_loose - surrogate_folded_.bound_too_loose,
                           c.refits - surrogate_folded_.refits);
    surrogate_folded_ = c;
    last_triage_.surrogate = rfabm::exec::surrogate_stats(*surrogate_);
}

DieCalibration Exec::calibrate(const core::RfAbmChipConfig& config,
                               const circuit::ProcessCorner& corner,
                               const rfabm::exec::CancellationToken& token) {
    return cache_.get_or_compute(
        config, corner,
        [&] {
            std::uint64_t newton = 0;
            DieCalibration cal = calibrate_die(config, corner, &newton);
            metrics_.add_newton(newton);
            metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
            return cal;
        },
        token);
}

Exec::GridDies Exec::memoized_dies(const core::RfAbmChipConfig& config,
                                   const std::vector<circuit::ProcessCorner>& dies) {
    GridDies grid;
    grid.count = dies.size();
    grid.calibration = [this, &config, &dies](std::size_t d,
                                              const rfabm::exec::CancellationToken& token) {
        return calibrate(config, dies[d], token);
    };
    grid.warm_first = true;
    grid.identity = [&dies](rfabm::exec::FieldHasher& h) {
        h.mix(static_cast<std::uint64_t>(dies.size()));
        for (const auto& corner : dies) h.mix(rfabm::exec::hash_corner(corner));
    };
    return grid;
}

Exec::GridDies Exec::given_dies(const std::vector<DieCalibration>& cals) {
    GridDies grid;
    grid.count = cals.size();
    grid.calibration = [&cals](std::size_t d, const rfabm::exec::CancellationToken&) {
        return cals[d];
    };
    grid.identity = [&cals](rfabm::exec::FieldHasher& h) {
        h.mix(static_cast<std::uint64_t>(cals.size()));
        for (const auto& cal : cals) {
            h.mix(rfabm::exec::hash_corner(cal.corner)).mix(cal.tune_p).mix(cal.tune_f);
        }
    };
    return grid;
}

void Exec::run_grid(const core::RfAbmChipConfig& config, const GridDies& dies,
                    const std::vector<core::OperatingConditions>& envs, const GridCell& cell,
                    const GridSink& sink) {
    // One cell on a fresh DUT session.  The token reaches the checked
    // pipeline and the solver (a watchdog deadline aborts a hung solve);
    // the heartbeat, when given, proves per-step progress.
    const auto measure = [&](std::size_t d, std::size_t e,
                             const rfabm::exec::CancellationToken& token,
                             std::atomic<std::uint64_t>* heartbeat) {
        const DieCalibration cal = dies.calibration(d, token);
        core::MeasureOptions mopts;
        mopts.cancel = token;
        mopts.surrogate = surrogate_binding(config, cal.corner, envs[e]);
        DutSession dut(config, cal, envs[e], mopts);
        dut.chip.engine().options().cancel = token;
        dut.chip.engine().options().heartbeat = heartbeat;
        metrics_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
        std::vector<double> payload = cell(dut, d, e);
        metrics_.add_newton(dut.chip.engine().newton_iterations());
        return payload;
    };
    const auto warm = [&dies](std::size_t d) {
        return [&dies, d](rfabm::exec::TaskContext& ctx) { (void)dies.calibration(d, ctx.token); };
    };
    rfabm::exec::CampaignOptions copts;
    copts.jobs = jobs_;
    copts.metrics = &metrics_;

    if (!resilient_) {
        std::vector<rfabm::exec::DieChain> chains(dies.count);
        for (std::size_t d = 0; d < dies.count; ++d) {
            if (dies.warm_first) chains[d].calibrate = warm(d);
            for (std::size_t e = 0; e < envs.size(); ++e) {
                chains[d].measurements.push_back({[&, d, e](rfabm::exec::TaskContext& ctx) {
                    sink(measure(d, e, ctx.token, nullptr), d, e);
                }});
            }
        }
        (void)rfabm::exec::run_campaign(chains, copts, pool_.get());
        fold_surrogate_metrics();
        return;
    }

    std::vector<rfabm::exec::ResilientChain> chains;
    chains.reserve(dies.count);
    for (std::size_t d = 0; d < dies.count; ++d) {
        // Sharded run: this process only measures its own dies.  Cells of
        // other shards stay default-initialized in the results; a caller
        // wanting the full grid merges the shard journals instead
        // (exec::merge_shard_journals, docs/sharding.md).
        if (opts_.shard_count > 1 &&
            rfabm::exec::shard_of_die(static_cast<std::uint32_t>(d),
                                      static_cast<std::uint32_t>(opts_.shard_count)) !=
                static_cast<std::uint32_t>(opts_.shard_index)) {
            continue;
        }
        rfabm::exec::ResilientChain chain;
        if (dies.warm_first) chain.calibrate = warm(d);
        for (std::size_t e = 0; e < envs.size(); ++e) {
            rfabm::exec::ResilientCell rc;
            rc.key = {static_cast<std::uint32_t>(d), static_cast<std::uint32_t>(e), 0};
            rc.compute = [&measure, d, e](const rfabm::exec::CellAttempt& att) {
                rfabm::exec::CellComputeResult out;
                out.payload = measure(d, e, att.token, att.heartbeat);
                return out;
            };
            // Fresh and replayed payloads take the identical path into the
            // cell's private slot: byte-identity by construction.
            rc.deliver = [&sink, d, e](const std::vector<double>& payload,
                                       rfabm::exec::CellOutcome,
                                       bool) { sink(payload, d, e); };
            chain.cells.push_back(std::move(rc));
        }
        chains.push_back(std::move(chain));
    }

    // Identity of the campaign: everything that affects its results.  A
    // journal written under a different identity is never replayed.
    rfabm::exec::FieldHasher identity;
    identity.mix(rfabm::exec::hash_chip_config(config));
    identity.mix(opts_.seed).mix(opts_.fast);
    identity.mix(static_cast<std::uint64_t>(envs.size()));
    identity.mix(static_cast<std::uint64_t>(campaign_seq_));
    dies.identity(identity);

    rfabm::exec::ResilienceOptions ropts;
    if (!opts_.journal_path.empty()) {
        // Benches running several campaigns in one process number the later
        // journals FILE.1, FILE.2, ... so resume pairs them up by position.
        ropts.journal_path = campaign_seq_ == 0
                                 ? opts_.journal_path
                                 : opts_.journal_path + "." + std::to_string(campaign_seq_);
        // A shard never writes the campaign journal directly — it owns its
        // own FILE.shardI.wal, which the coordinator merges (docs/sharding.md).
        if (opts_.shard_count > 1) {
            ropts.journal_path = rfabm::exec::shard_journal_path(
                ropts.journal_path, static_cast<std::uint32_t>(opts_.shard_index));
        }
    }
    ropts.resume = opts_.resume;
    ropts.campaign_id = identity.value();
    ropts.cell_timeout = std::chrono::nanoseconds(
        static_cast<std::int64_t>(opts_.watchdog_ms * 1e6));
    ropts.watchdog.auto_tune = opts_.watchdog_auto;
    ropts.max_cell_attempts = opts_.max_cell_attempts;

    last_triage_ = rfabm::exec::run_resilient_campaign(chains, copts, ropts, pool_.get()).triage;
    fold_surrogate_metrics();

    if (!opts_.triage_path.empty()) {
        // One JSON object per campaign, line-delimited; truncate on the
        // first campaign of the run.
        std::FILE* f = std::fopen(opts_.triage_path.c_str(), campaign_seq_ == 0 ? "w" : "a");
        if (f != nullptr) {
            const std::string json = last_triage_.to_json();
            std::fprintf(f, "%s\n", json.c_str());
            std::fclose(f);
        }
    }
    ++campaign_seq_;
}

void Exec::print_summary() const {
    const auto s = metrics_.snapshot();
    say("[exec] jobs=%zu  %s\n", jobs_, s.to_string().c_str());
}

void Exec::print_triage() const {
    if (!resilient_) return;
    say("%s\n", last_triage_.to_string().c_str());
}

rfabm::rf::MonotoneCurve acquire_trimmed_power_curve(core::MeasurementController& controller,
                                                     const std::vector<double>& powers_dbm,
                                                     double carrier_hz) {
    core::RfAbmChip& chip = controller.chip();
    std::vector<rfabm::rf::CurvePoint> points;
    points.reserve(powers_dbm.size());
    for (double dbm : powers_dbm) {
        chip.set_rf(dbm, carrier_hz);
        points.push_back({dbm, controller.measure_power_vout()});
    }
    chip.rf_off();
    // Longest strictly increasing run containing the grid midpoint.
    const std::size_t mid = points.size() / 2;
    std::size_t lo = mid;
    std::size_t hi = mid;
    while (lo > 0 && points[lo - 1].y < points[lo].y) --lo;
    while (hi + 1 < points.size() && points[hi + 1].y > points[hi].y) ++hi;
    return rfabm::rf::MonotoneCurve(
        std::vector<rfabm::rf::CurvePoint>(points.begin() + static_cast<std::ptrdiff_t>(lo),
                                           points.begin() + static_cast<std::ptrdiff_t>(hi) + 1));
}

TablePrinter::TablePrinter(std::vector<std::string> headers) {
    widths_.reserve(headers.size());
    std::string line;
    for (const auto& h : headers) {
        widths_.push_back(std::max<std::size_t>(h.size(), 9));
        line += h;
        line.append(widths_.back() - h.size() + 2, ' ');
    }
    const std::lock_guard<std::mutex> lock(sink_mutex());
    std::printf("%s\n", line.c_str());
    std::printf("%s\n", std::string(line.size(), '-').c_str());
}

void TablePrinter::row(const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t w = i < widths_.size() ? widths_[i] : 9;
        line += cells[i];
        // Pad to the column width, but never merge adjacent cells.
        line.append(cells[i].size() < w + 2 ? w + 2 - cells[i].size() : 2, ' ');
    }
    const std::lock_guard<std::mutex> lock(sink_mutex());
    std::printf("%s\n", line.c_str());
}

std::string TablePrinter::num(double v, int precision) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void say(const char* fmt, ...) {
    const std::lock_guard<std::mutex> lock(sink_mutex());
    std::va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fflush(stdout);
}

void banner(const char* experiment, const char* paper_artifact, const HarnessOptions& opts) {
    const std::lock_guard<std::mutex> lock(sink_mutex());
    std::printf("================================================================\n");
    std::printf("%s\n", experiment);
    std::printf("reproduces: %s  (Syri et al., DATE 2005)\n", paper_artifact);
    std::printf("mode: %s  seed: %llu  MC dies: %zu  jobs: %zu\n", opts.fast ? "FAST" : "full",
                static_cast<unsigned long long>(opts.seed), opts.dies().size(),
                opts.effective_jobs());
    if (opts.shard_count > 1) {
        std::printf("shard: %zu of %zu  (die %% %zu == %zu)\n", opts.shard_index,
                    opts.shard_count, opts.shard_count, opts.shard_index);
    }
    if (!opts.surrogate_path.empty()) {
        std::printf("surrogate: two-tier serving via %s\n",
                    opts.surrogate_store_path().c_str());
    }
    std::printf("================================================================\n");
}

}  // namespace rfabm::bench
