// Serial-vs-parallel wall-clock of a representative measurement campaign.
//
// Runs the same (die x corner) power sweep once with --jobs 1 (the
// historical serial path) and once with the requested worker count, checks
// the results are bit-identical (the engine's determinism contract), and
// writes a machine-readable BENCH_parallel.json next to the human-readable
// table.  A fresh Exec per timed phase keeps the calibration cache cold for
// both, so the comparison is fair.
//
// Usage: parallel_speedup [--fast] [--jobs N] [--dies N] [--out FILE]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

namespace {

using namespace rfabm;

struct Phase {
    std::size_t jobs = 1;
    double seconds = 0.0;
    std::vector<std::vector<double>> cells;  // per (die, env): per-Pin dBm
    exec::CampaignMetrics::Snapshot metrics;
};

Phase run_phase(std::size_t jobs, const bench::HarnessOptions& base,
                const core::RfAbmChipConfig& config,
                const std::vector<circuit::ProcessCorner>& dies,
                const std::vector<core::OperatingConditions>& envs,
                const std::vector<double>& powers, const rf::MonotoneCurve& curve) {
    bench::HarnessOptions opts = base;
    opts.jobs = jobs;
    bench::Exec exec(opts);  // fresh pool + cold calibration cache
    Phase phase;
    phase.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    phase.cells = exec.map_die_env<std::vector<double>>(
        config, dies, envs, [&](bench::DutSession& dut, std::size_t, std::size_t) {
            std::vector<double> out(powers.size());
            for (std::size_t i = 0; i < powers.size(); ++i) {
                dut.chip.set_rf(powers[i], 1.5e9);
                out[i] = dut.controller.measure_power(curve).dbm;
            }
            return out;
        });
    const auto t1 = std::chrono::steady_clock::now();
    phase.seconds = std::chrono::duration<double>(t1 - t0).count();
    phase.metrics = exec.metrics().snapshot();
    return phase;
}

bool bit_identical(const Phase& a, const Phase& b) {
    if (a.cells.size() != b.cells.size()) return false;
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        if (a.cells[c].size() != b.cells[c].size()) return false;
        for (std::size_t i = 0; i < a.cells[c].size(); ++i) {
            // memcmp-style equality: NaNs would differ, which is what we want
            // to hear about.
            if (a.cells[c][i] != b.cells[c][i]) return false;
        }
    }
    return true;
}

void write_json(const char* path, const Phase& serial, const Phase& parallel, bool identical,
                std::size_t dies, std::size_t envs, std::size_t points) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::printf("could not open %s for writing\n", path);
        return;
    }
    const double speedup = parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"parallel_speedup\",\n");
    std::fprintf(f, "  \"hardware_concurrency\": %u, \n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"campaign\": {\"dies\": %zu, \"envs\": %zu, \"sweep_points\": %zu},\n",
                 dies, envs, points);
    std::fprintf(f, "  \"serial\": {\"jobs\": 1, \"seconds\": %.3f},\n", serial.seconds);
    std::fprintf(f,
                 "  \"parallel\": {\"jobs\": %zu, \"seconds\": %.3f, \"steals\": %llu, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu, \"newton_iterations\": %llu},\n",
                 parallel.jobs, parallel.seconds,
                 static_cast<unsigned long long>(parallel.metrics.steals),
                 static_cast<unsigned long long>(parallel.metrics.cache_hits),
                 static_cast<unsigned long long>(parallel.metrics.cache_misses),
                 static_cast<unsigned long long>(parallel.metrics.newton_iterations));
    std::fprintf(f, "  \"speedup\": %.2f,\n", speedup);
    std::fprintf(f, "  \"bit_identical\": %s\n", identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions opts = bench::parse_options(argc, argv);
    const char* out_path = opts.out_path.empty() ? "BENCH_parallel.json" : opts.out_path.c_str();
    bench::banner("parallel_speedup: campaign wall-clock, serial vs engine",
                  "execution-engine benchmark (not a paper artifact)", opts);

    const core::RfAbmChipConfig config{};
    const std::vector<double> powers =
        opts.fast ? std::vector<double>{-12.0, -6.0, 0.0} : rf::arange(-15.0, 3.0, 3.0);
    const std::vector<circuit::ProcessCorner> dies = opts.dies();
    const std::vector<core::OperatingConditions> envs = opts.envs();

    std::printf("acquiring nominal reference curve...\n");
    core::RfAbmChip nominal{config};
    core::MeasurementController ctl(nominal);
    ctl.open_session();
    core::dc_calibrate(ctl);
    const rf::MonotoneCurve curve =
        bench::acquire_trimmed_power_curve(ctl, rf::arange(-18.0, 6.0, 1.0), 1.5e9);

    const std::size_t par_jobs = std::max<std::size_t>(opts.effective_jobs(), 2);
    std::printf("campaign: %zu dies x %zu corners x %zu sweep points\n", dies.size(),
                envs.size(), powers.size());

    std::printf("[1/2] serial (--jobs 1)...\n");
    const Phase serial = run_phase(1, opts, config, dies, envs, powers, curve);
    std::printf("      %.2f s\n", serial.seconds);

    std::printf("[2/2] engine (--jobs %zu)...\n", par_jobs);
    const Phase parallel = run_phase(par_jobs, opts, config, dies, envs, powers, curve);
    std::printf("      %.2f s\n", parallel.seconds);

    const bool identical = bit_identical(serial, parallel);
    bench::TablePrinter table({"jobs", "seconds", "speedup", "steals", "cache"});
    table.row({"1", bench::TablePrinter::num(serial.seconds), "1.00",
               std::to_string(serial.metrics.steals),
               std::to_string(serial.metrics.cache_hits) + "/" +
                   std::to_string(serial.metrics.cache_hits + serial.metrics.cache_misses)});
    table.row({std::to_string(par_jobs), bench::TablePrinter::num(parallel.seconds),
               bench::TablePrinter::num(parallel.seconds > 0.0
                                            ? serial.seconds / parallel.seconds
                                            : 0.0),
               std::to_string(parallel.metrics.steals),
               std::to_string(parallel.metrics.cache_hits) + "/" +
                   std::to_string(parallel.metrics.cache_hits +
                                  parallel.metrics.cache_misses)});
    std::printf("results bit-identical across jobs: %s\n", identical ? "yes" : "NO");

    write_json(out_path, serial, parallel, identical, dies.size(), envs.size(), powers.size());
    return identical ? 0 : 1;
}
