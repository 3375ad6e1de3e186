// Campaign cost: what the execution engine, the crash-safety layer, the
// surrogate tier and the supervised multi-process fleet each cost (or save)
// on a measurement campaign.
//
// Four comparisons, every side timed the same number of times (5 full, 3
// --fast), each repeat running the schedule in reverse order of the last so
// every pair alternates which side runs first:
//   parallel   — serial (--jobs 1) vs the engine (--jobs max(N, 2)),
//   resilience — the engine bare vs journaled with the watchdog armed vs
//                resumed from that journal (every cell replayed),
//   surrogate  — the engine with the tier off (reference) vs cold (an empty
//                store, observe-only, trains the surfaces) vs warm (a fresh
//                Exec serving every read from the persisted store),
//   campaignd  — rfabm_campaignd --shards 1 vs 3 shards vs a SIGKILLed
//                worker vs a full disk, on its synthetic --cell-ms workload
//                (sleeps, not solves).
// The in-process sides run one (die x corner x Pin) power sweep through the
// production measurement path; the bare engine run is the second side of the
// first three comparisons.
//
// Gates (exit 1): every in-process run bit-identical to the first serial
// run; the resume re-measures nothing; every warm read is a surrogate hit,
// agrees with batched evaluation and lies within its surface's published
// error bound; warm is >= 10x faster than the reference; every campaignd run
// exits 0 with --out and the merged journal byte-identical.  The 5% overhead
// budgets are recorded in BENCH_campaign.json but do not gate: wall clock on
// a shared host is too noisy to fail on.
//
// Usage: campaign_cost [--fast] [--seed N] [--dies N] [--jobs N] [--out FILE]
//                      [--watchdog-ms N] [--watchdog-auto] [--max-attempts N]
// The journal, store and campaignd stems derive from --out.  Flags the bench
// sets per phase (--journal, --resume, --surrogate, --surrogate-max-bound,
// --shards, --shard-index, --triage) exit 2.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

#ifndef CAMPAIGND_BIN
#error "CMake must define CAMPAIGND_BIN (path to the rfabm_campaignd binary)"
#endif
#ifndef RFABM_BUILD_TYPE
#define RFABM_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rfabm;

constexpr double kCarrierHz = 1.5e9;
constexpr double kOverheadBudget = 0.05;  // recorded, not gated
constexpr double kWarmSpeedupFloor = 10.0;
constexpr std::size_t kFleetShards = 3;

template <class F>
double timed(F&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The in-process campaign: dies x corners x a Pin sweep read against the
/// one nominal reference curve.
struct Grid {
    core::RfAbmChipConfig config;
    std::vector<circuit::ProcessCorner> dies;
    std::vector<core::OperatingConditions> envs;
    std::vector<double> powers;
    rf::MonotoneCurve curve;
};

/// Per (die, corner), die-major: each read's settled Vout then its dBm.
using Cells = std::vector<std::vector<double>>;

/// The one cell every in-process side runs.  Reads the surrogate tier did not
/// serve are counted into @p fallbacks when given.
std::vector<double> sweep_cell(core::RfAbmChip& chip, core::MeasurementController& controller,
                               const Grid& grid, std::size_t* fallbacks = nullptr) {
    std::vector<double> out;
    out.reserve(grid.powers.size() * 2);
    for (const double p : grid.powers) {
        chip.set_rf(p, kCarrierHz);
        const core::PowerMeasurement m = controller.measure_power(grid.curve);
        if (fallbacks != nullptr && !m.from_surrogate) ++*fallbacks;
        out.push_back(m.vout);
        out.push_back(m.dbm);
    }
    return out;
}

struct Run {
    double seconds = 0.0;
    Cells cells;
    exec::TriageReport triage;
    exec::CampaignMetrics::Snapshot metrics;
};

/// One campaign through the engine on a fresh Exec: a fresh pool and a cold
/// calibration cache; a --surrogate store loads at construction and persists
/// at destruction, as in a real campaign process.
Run run_engine(const bench::HarnessOptions& opts, const Grid& grid) {
    bench::Exec exec(opts);
    Run run;
    run.seconds = timed([&] {
        run.cells = exec.map_die_env<std::vector<double>>(
            grid.config, grid.dies, grid.envs,
            [&grid](bench::DutSession& dut, std::size_t, std::size_t) {
                return sweep_cell(dut.chip, dut.controller, grid);
            });
    });
    run.triage = exec.last_triage();
    run.metrics = exec.metrics().snapshot();
    return run;
}

/// What the warm runs prove besides their time, accumulated over repeats.
struct WarmAudit {
    std::size_t fallbacks = 0;
    bool batch_agrees = true;
    double max_error_v = 0.0;
    double max_excess_v = -1e300;  ///< max over reads of |error| - published bound
};

/// A fresh Exec loads the persisted store and serves the sweep: no 1149.4
/// session, no DC calibration, no solver.  The audit against @p reference
/// runs outside the timed span and accumulates into @p audit.
Run run_warm(const bench::HarnessOptions& opts, const Grid& grid, const Cells& reference,
             WarmAudit* audit) {
    bench::Exec exec(opts);
    Run run;
    run.seconds = timed([&] {
        for (const auto& die : grid.dies) {
            for (const auto& env : grid.envs) {
                core::RfAbmChip chip{grid.config, env, die};
                core::MeasureOptions mopts;
                mopts.surrogate = exec.surrogate_binding(grid.config, die, env);
                core::MeasurementController controller(chip, mopts);
                run.cells.push_back(sweep_cell(chip, controller, grid, &audit->fallbacks));
            }
        }
    });

    rf::surrogate::SurrogateStore& store = *exec.surrogate();
    for (std::size_t d = 0; d < grid.dies.size(); ++d) {
        for (std::size_t e = 0; e < grid.envs.size(); ++e) {
            const std::size_t c = d * grid.envs.size() + e;
            const core::SurrogateBinding b =
                exec.surrogate_binding(grid.config, grid.dies[d], grid.envs[e]);
            const rf::surrogate::SurrogateKey key{
                static_cast<std::uint32_t>(rf::surrogate::Quantity::kPowerVout), b.die, b.corner};
            const double bound = store.surface(key).error_bound();
            std::vector<rf::surrogate::Query> queries;
            for (const double p : grid.powers) {
                queries.push_back({p, kCarrierHz, grid.envs[e].vdd_pdet});
            }
            std::vector<double> batched;
            if (store.try_serve(key, queries, &batched, nullptr) != rf::surrogate::Decision::kHit) {
                audit->batch_agrees = false;
                continue;
            }
            for (std::size_t i = 0; i < grid.powers.size(); ++i) {
                const double vout = run.cells[c][2 * i];
                if (batched[i] != vout) audit->batch_agrees = false;
                const double error = std::fabs(vout - reference[c][2 * i]);
                audit->max_error_v = std::max(audit->max_error_v, error);
                audit->max_excess_v = std::max(audit->max_excess_v, error - bound);
            }
        }
    }
    return run;
}

// --- the supervised fleet (rfabm_campaignd, fork/exec) ----------------------

struct Fleet {
    std::size_t dies = 0;
    std::size_t envs = 4;
    std::size_t jobs = 1;
    int cell_ms = 0;
};

struct FleetRun {
    double seconds = 0.0;
    int exit_code = -1;
    std::string out_bytes;  ///< the --out result file, verbatim
    std::string wal_bytes;  ///< the merged campaign journal, verbatim
};

std::string slurp(const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return bytes;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

void remove_fleet_files(const std::string& stem) {
    std::remove((stem + ".out").c_str());
    std::remove((stem + ".wal").c_str());
    for (std::uint32_t s = 0; s < kFleetShards; ++s) {
        std::remove(exec::shard_journal_path(stem, s).c_str());
        std::remove(exec::rebalance_journal_path(stem, s).c_str());
    }
}

/// fork/exec the coordinator with @p args and wait: the exit code, or
/// 128 + signal when killed.  Its stdout narration is discarded.
int spawn_campaignd(std::vector<std::string> args) {
    std::string bin = CAMPAIGND_BIN;
    std::vector<char*> argv{bin.data()};
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        ::execv(argv[0], argv.data());
        std::_Exit(127);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
}

FleetRun run_fleet(const std::string& stem, const Fleet& fleet,
                   const std::vector<std::string>& extra) {
    remove_fleet_files(stem);
    std::vector<std::string> args = {
        "--journal", stem,
        "--out", stem + ".out",
        "--dies", std::to_string(fleet.dies),
        "--envs", std::to_string(fleet.envs),
        "--jobs", std::to_string(fleet.jobs),
        "--cell-ms", std::to_string(fleet.cell_ms),
    };
    args.insert(args.end(), extra.begin(), extra.end());
    FleetRun run;
    run.seconds = timed([&] { run.exit_code = spawn_campaignd(args); });
    run.out_bytes = slurp(stem + ".out");
    run.wal_bytes = slurp(stem + ".wal");
    remove_fleet_files(stem);
    return run;
}

// --- statistics and the record ------------------------------------------------

/// One side of a comparison: its wall clock per repeat.
struct Side {
    const char* name;
    std::vector<double> seconds;

    /// Quantile by linear interpolation between order statistics.
    double quantile(double q) const {
        std::vector<double> xs = seconds;
        std::sort(xs.begin(), xs.end());
        const double pos = q * static_cast<double>(xs.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, xs.size() - 1);
        return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
    }
    double median() const { return quantile(0.5); }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `"name": {median, quartiles, every run}`; @p name defaults to the side's.
std::string json_side(const Side& s, const char* name = nullptr) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"median_s\": %.6f, \"q1_s\": %.6f, \"q3_s\": %.6f, \"runs_s\": [",
                  name != nullptr ? name : s.name, s.median(), s.quantile(0.25),
                  s.quantile(0.75));
    std::string out = buf;
    for (std::size_t i = 0; i < s.seconds.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.6f", i == 0 ? "" : ", ", s.seconds[i]);
        out += buf;
    }
    return out + "]}";
}

const char* yes(bool b) { return b ? "true" : "false"; }

/// Number of CPUs this process may run on (what nproc prints).
int host_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions base = bench::parse_options(argc, argv);
    if (!base.journal_path.empty() || base.resume || !base.surrogate_path.empty() ||
        base.surrogate_max_bound != bench::HarnessOptions{}.surrogate_max_bound ||
        base.shard_count != 1 || base.shard_index != 0 || !base.triage_path.empty()) {
        std::fprintf(stderr,
                     "%s: --journal, --resume, --surrogate, --surrogate-max-bound, --shards, "
                     "--shard-index and --triage are set per phase by this bench\n",
                     argv[0]);
        return 2;
    }
    const std::string out_path = base.out_path.empty() ? "BENCH_campaign.json" : base.out_path;
    using bench::say;
    bench::banner("campaign_cost: engine, journal, surrogate and fleet overhead",
                  "campaign-cost benchmark (not a paper artifact)", base);
    const std::size_t repeats = base.fast ? 3 : 5;

    Grid grid;
    grid.dies = base.dies();
    // The fast corner set (nominal and two extremes) in both modes: full mode
    // buys more dies and repeats instead, which keeps it near five minutes
    // on four cores.
    bench::HarnessOptions corners = base;
    corners.fast = true;
    grid.envs = corners.envs();
    // 25 reads per cell, one past the store's refit_min_samples (24), so
    // every (die, temperature) key is fitted when the cold run closes its
    // generation.  The span stays low in the detector's monotone core, where
    // a read settles in a few windows.
    grid.powers = rf::arange(-18.0, -6.0, 0.5);
    say("acquiring nominal reference curve...\n");
    {
        core::RfAbmChip nominal{grid.config};
        core::MeasurementController ctl(nominal);
        ctl.open_session();
        core::dc_calibrate(ctl);
        grid.curve = bench::acquire_trimmed_power_curve(ctl, rf::arange(-18.0, 6.0, 1.0),
                                                         kCarrierHz);
    }
    const std::size_t cells = grid.dies.size() * grid.envs.size();

    bench::HarnessOptions serial = base;
    serial.jobs = 1;
    serial.watchdog_ms = 0.0;
    serial.watchdog_auto = false;
    bench::HarnessOptions engine = serial;
    engine.jobs = std::max<std::size_t>(base.effective_jobs(), 2);
    bench::HarnessOptions journaled = engine;
    journaled.journal_path = out_path + ".wal";
    journaled.watchdog_ms = base.watchdog_ms > 0.0 ? base.watchdog_ms : 30000.0;
    journaled.watchdog_auto = base.watchdog_auto;
    bench::HarnessOptions resumed = journaled;
    resumed.resume = true;
    bench::HarnessOptions surrogate = engine;
    surrogate.surrogate_path = out_path + ".sur";
    // Audit the published bound directly: a loose fit must fail the bound
    // check, not fall back silently under a serving budget.
    surrogate.surrogate_max_bound = 0.0;

    say("grid: %zu dies x %zu corners x %zu reads, engine --jobs %zu, %zu repeats\n",
        grid.dies.size(), grid.envs.size(), grid.powers.size(), engine.jobs, repeats);

    Side t_serial{"serial", {}}, t_engine{"engine", {}}, t_journaled{"journaled", {}},
        t_resumed{"resumed", {}}, t_cold{"cold", {}}, t_warm{"warm", {}};
    Cells baseline;
    bool identical = true;
    bool resume_clean = true;
    exec::JournalStats journal{};
    WarmAudit warm;
    std::uint64_t cold_refits = 0;
    const auto record = [&](Side& side, const Run& run) {
        side.seconds.push_back(run.seconds);
        if (baseline.empty()) {
            baseline = run.cells;
        } else if (run.cells != baseline) {
            identical = false;
        }
        say("  %-10s %8.3f s\n", side.name, run.seconds);
    };
    const std::vector<std::function<void()>> schedule = {
        [&] { record(t_serial, run_engine(serial, grid)); },
        [&] { record(t_engine, run_engine(engine, grid)); },
        [&] {
            const Run logged = run_engine(journaled, grid);
            record(t_journaled, logged);
            journal = logged.triage.journal;
            const Run replay = run_engine(resumed, grid);
            record(t_resumed, replay);
            resume_clean = resume_clean && replay.triage.journal.records_written == 0 &&
                           replay.triage.count(exec::CellOutcome::kReplayed) == cells;
        },
        [&] {
            std::remove(surrogate.surrogate_path.c_str());  // cold: an empty store
            const Run cold = run_engine(surrogate, grid);
            record(t_cold, cold);
            cold_refits = cold.metrics.surrogate_refits;
            t_warm.seconds.push_back(run_warm(surrogate, grid, baseline, &warm).seconds);
            say("  %-10s %8.4f s\n", t_warm.name, t_warm.seconds.back());
        },
    };
    for (std::size_t r = 0; r < repeats; ++r) {
        say("[repeat %zu/%zu]\n", r + 1, repeats);
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            schedule[r % 2 == 0 ? i : schedule.size() - 1 - i]();
        }
    }
    std::remove(journaled.journal_path.c_str());
    std::remove(surrogate.surrogate_path.c_str());

    Fleet fleet;
    fleet.dies = base.fast ? 6 : 12;
    fleet.jobs = base.jobs > 0 ? base.jobs : 1;
    fleet.cell_ms = base.fast ? 5 : 20;
    const std::string shards = std::to_string(kFleetShards);
    struct FleetSide {
        Side side;
        std::vector<std::string> args;
    };
    std::vector<FleetSide> fleet_sides = {
        {{"single", {}}, {"--shards", "1"}},
        {{"sharded", {}}, {"--shards", shards}},
        {{"killed", {}}, {"--shards", shards, "--chaos", "kill:1@2"}},
        {{"rebalanced", {}}, {"--shards", shards, "--chaos", "disk-full:1@2"}},
    };
    say("campaignd (synthetic --cell-ms workload): %zu dies x %zu corners, %d ms cells, "
        "%zu shards, --jobs %zu per shard\n",
        fleet.dies, fleet.envs, fleet.cell_ms, kFleetShards, fleet.jobs);
    FleetRun fleet_ref;
    bool fleet_exit_clean = true;
    bool fleet_identical = true;
    for (std::size_t r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < fleet_sides.size(); ++i) {
            FleetSide& fs = fleet_sides[r % 2 == 0 ? i : fleet_sides.size() - 1 - i];
            const FleetRun run = run_fleet(out_path + "." + fs.side.name, fleet, fs.args);
            fs.side.seconds.push_back(run.seconds);
            fleet_exit_clean = fleet_exit_clean && run.exit_code == 0 && !run.out_bytes.empty() &&
                               !run.wal_bytes.empty();
            if (fleet_ref.out_bytes.empty()) fleet_ref = run;
            fleet_identical = fleet_identical && run.out_bytes == fleet_ref.out_bytes &&
                              run.wal_bytes == fleet_ref.wal_bytes;
        }
    }

    const double speedup = ratio(t_serial.median(), t_engine.median());
    const double journal_overhead = ratio(t_journaled.median(), t_engine.median()) - 1.0;
    const double cold_overhead = ratio(t_cold.median(), t_engine.median()) - 1.0;
    const double warm_speedup = ratio(t_engine.median(), t_warm.median());
    const bool warm_fast = warm_speedup >= kWarmSpeedupFloor;
    const bool within_bound = warm.max_excess_v <= 0.0;
    const bool warm_clean = warm.fallbacks == 0 && warm.batch_agrees && within_bound;
    const Side& single = fleet_sides[0].side;

    bench::TablePrinter table({"comparison", "side", "median s", "q1 s", "q3 s", "vs first"});
    const auto row = [&table](const char* comparison, const Side& s, const Side& first) {
        table.row({comparison, s.name, bench::TablePrinter::num(s.median(), 4),
                   bench::TablePrinter::num(s.quantile(0.25), 4),
                   bench::TablePrinter::num(s.quantile(0.75), 4),
                   bench::TablePrinter::num(ratio(s.median(), first.median()), 3)});
    };
    row("parallel", t_serial, t_serial);
    row("parallel", t_engine, t_serial);
    row("resilience", t_engine, t_engine);
    row("resilience", t_journaled, t_engine);
    row("resilience", t_resumed, t_engine);
    row("surrogate", t_engine, t_engine);
    row("surrogate", t_cold, t_engine);
    row("surrogate", t_warm, t_engine);
    for (const FleetSide& fs : fleet_sides) row("campaignd", fs.side, single);

    std::printf("engine speedup over serial: %.2fx\n", speedup);
    std::printf("journaling overhead: %+.1f%% (budget %.0f%%, not gated)\n",
                journal_overhead * 100.0, kOverheadBudget * 100.0);
    std::printf("cold surrogate overhead: %+.1f%%; warm speedup %.1fx (>= %.0fx required): %s\n",
                cold_overhead * 100.0, warm_speedup, kWarmSpeedupFloor, warm_fast ? "yes" : "NO");
    std::printf("in-process runs bit-identical to serial: %s\n", identical ? "yes" : "NO");
    std::printf("resume re-measured nothing: %s\n", resume_clean ? "yes" : "NO");
    std::printf("warm reads all served, batch-consistent, within bound (max |err| %.3e V): %s\n",
                warm.max_error_v, warm_clean ? "yes" : "NO");
    std::printf("campaignd runs exited 0: %s; --out and merged journal byte-identical: %s\n",
                fleet_exit_clean ? "yes" : "NO", fleet_identical ? "yes" : "NO");

    const bool ok = identical && resume_clean && warm_clean && warm_fast && fleet_exit_clean &&
                    fleet_identical;
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::printf("could not open %s for writing\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"campaign_cost\",\n");
    std::fprintf(f, "  \"host\": {\"nproc\": %d, \"build_type\": \"%s\"},\n", host_cpus(),
                 RFABM_BUILD_TYPE);
    std::fprintf(f, "  \"mode\": \"%s\", \"seed\": %llu, \"repeats\": %zu,\n",
                 base.fast ? "fast" : "full", static_cast<unsigned long long>(base.seed), repeats);
    std::fprintf(f,
                 "  \"grids\": {\"cells\": {\"dies\": %zu, \"corners\": %zu, \"reads_per_cell\": "
                 "%zu, \"pin_dbm\": [%.1f, %.1f], \"engine_jobs\": %zu},\n",
                 grid.dies.size(), grid.envs.size(), grid.powers.size(), grid.powers.front(),
                 grid.powers.back(), engine.jobs);
    std::fprintf(f,
                 "            \"campaignd\": {\"workload\": \"synthetic --cell-ms sleeps, not "
                 "solves\", \"dies\": %zu, \"corners\": %zu, \"cell_ms\": %d, \"shards\": %zu, "
                 "\"jobs_per_shard\": %zu}},\n",
                 fleet.dies, fleet.envs, fleet.cell_ms, kFleetShards, fleet.jobs);
    std::fprintf(f, "  \"parallel\": {%s, %s,\n", json_side(t_serial).c_str(),
                 json_side(t_engine).c_str());
    std::fprintf(f, "    \"speedup\": %.3f, \"bit_identical\": %s},\n", speedup, yes(identical));
    std::fprintf(f, "  \"resilience\": {%s, %s, %s,\n", json_side(t_engine, "bare").c_str(),
                 json_side(t_journaled).c_str(), json_side(t_resumed).c_str());
    std::fprintf(f,
                 "    \"journal\": {\"records\": %llu, \"bytes\": %llu, \"fsyncs\": %llu},\n",
                 static_cast<unsigned long long>(journal.records_written),
                 static_cast<unsigned long long>(journal.bytes_written),
                 static_cast<unsigned long long>(journal.fsyncs));
    std::fprintf(f,
                 "    \"overhead_pct\": %.2f, \"budget_pct\": %.0f, \"within_budget\": %s, "
                 "\"bit_identical\": %s, \"resume_remeasured_nothing\": %s},\n",
                 journal_overhead * 100.0, kOverheadBudget * 100.0,
                 yes(journal_overhead < kOverheadBudget), yes(identical), yes(resume_clean));
    std::fprintf(f, "  \"surrogate\": {%s, %s, %s,\n", json_side(t_engine, "reference").c_str(),
                 json_side(t_cold).c_str(), json_side(t_warm).c_str());
    std::fprintf(f,
                 "    \"cold_overhead_pct\": %.2f, \"cold_refits\": %llu, \"warm_speedup\": %.1f, "
                 "\"warm_speedup_floor\": %.0f, \"max_abs_error_v\": %.6e,\n",
                 cold_overhead * 100.0, static_cast<unsigned long long>(cold_refits),
                 warm_speedup, kWarmSpeedupFloor, warm.max_error_v);
    std::fprintf(f,
                 "    \"cold_bit_identical\": %s, \"warm_fallbacks\": %zu, \"batch_agrees\": %s, "
                 "\"within_bound\": %s, \"speedup_ok\": %s},\n",
                 yes(identical), warm.fallbacks, yes(warm.batch_agrees), yes(within_bound),
                 yes(warm_fast));
    std::fprintf(f, "  \"campaignd\": {%s, %s, %s, %s,\n", json_side(single).c_str(),
                 json_side(fleet_sides[1].side).c_str(), json_side(fleet_sides[2].side).c_str(),
                 json_side(fleet_sides[3].side).c_str());
    std::fprintf(f, "    \"overhead_pct\": {");
    for (std::size_t i = 1; i < fleet_sides.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.2f", i == 1 ? "" : ", ", fleet_sides[i].side.name,
                     (ratio(fleet_sides[i].side.median(), single.median()) - 1.0) * 100.0);
    }
    std::fprintf(f, "}, \"budget_pct\": %.0f,\n", kOverheadBudget * 100.0);
    std::fprintf(f, "    \"all_exit_0\": %s, \"out_and_wal_identical\": %s},\n",
                 yes(fleet_exit_clean), yes(fleet_identical));
    std::fprintf(f, "  \"ok\": %s\n}\n", yes(ok));
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
