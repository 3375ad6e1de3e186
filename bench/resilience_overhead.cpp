// Cost of crash-safety: the parallel_speedup workload with and without the
// write-ahead journal.
//
// Three phases over the same (die x corner) power sweep:
//   1. bare      — the plain task-graph path (no journal, no watchdog),
//   2. journaled — every completed cell appended + checksummed + flushed,
//      with the watchdog armed (docs/resilience.md),
//   3. resumed   — a fresh process-equivalent Exec replaying the phase-2
//      journal: every cell must come back from the log, none re-measured.
//
// The acceptance bar (EXPERIMENTS.md) is journaling overhead < 5% and all
// three phases bit-identical.  Only the identity check gates the exit code;
// wall-clock on shared CI is too noisy to fail the build on, so the overhead
// lands in BENCH_resilience.json for the record instead.
//
// Usage: resilience_overhead [--fast] [--jobs N] [--dies N] [--out FILE]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

namespace {

using namespace rfabm;

struct Phase {
    double seconds = 0.0;
    std::vector<std::vector<double>> cells;  // per (die, env): per-Pin dBm
    exec::TriageReport triage;
};

Phase run_phase(const bench::HarnessOptions& opts, const core::RfAbmChipConfig& config,
                const std::vector<circuit::ProcessCorner>& dies,
                const std::vector<core::OperatingConditions>& envs,
                const std::vector<double>& powers, const rf::MonotoneCurve& curve) {
    bench::Exec exec(opts);  // fresh pool + cold calibration cache, fair timing
    Phase phase;
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
    if (exec.resilient()) phase.triage = exec.last_triage();
    return phase;
}

bool bit_identical(const Phase& a, const Phase& b) {
    if (a.cells.size() != b.cells.size()) return false;
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        if (a.cells[c].size() != b.cells[c].size()) return false;
        for (std::size_t i = 0; i < a.cells[c].size(); ++i) {
            if (a.cells[c][i] != b.cells[c][i]) return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::HarnessOptions base = bench::parse_options(argc, argv);
    const char* out_path = base.out_path.empty() ? "BENCH_resilience.json" : base.out_path.c_str();
    bench::banner("resilience_overhead: journaled vs bare campaign wall-clock",
                  "resilience-layer benchmark (not a paper artifact)", base);

    const core::RfAbmChipConfig config{};
    const std::vector<double> powers =
        base.fast ? std::vector<double>{-12.0, -6.0, 0.0} : rf::arange(-15.0, 3.0, 3.0);
    const std::vector<circuit::ProcessCorner> dies = base.dies();
    const std::vector<core::OperatingConditions> envs = base.envs();

    std::printf("acquiring nominal reference curve...\n");
    core::RfAbmChip nominal{config};
    core::MeasurementController ctl(nominal);
    ctl.open_session();
    core::dc_calibrate(ctl);
    const rf::MonotoneCurve curve =
        bench::acquire_trimmed_power_curve(ctl, rf::arange(-18.0, 6.0, 1.0), 1.5e9);

    const std::string journal =
        base.journal_path.empty() ? std::string("BENCH_resilience.wal") : base.journal_path;
    std::printf("campaign: %zu dies x %zu corners x %zu sweep points, jobs %zu\n",
                dies.size(), envs.size(), powers.size(), base.effective_jobs());

    std::printf("[1/3] bare (no journal)...\n");
    bench::HarnessOptions bare = base;
    bare.journal_path.clear();
    bare.watchdog_ms = 0.0;
    bare.triage_path.clear();
    const Phase plain = run_phase(bare, config, dies, envs, powers, curve);
    std::printf("      %.2f s\n", plain.seconds);

    std::printf("[2/3] journaled (--journal %s --watchdog-ms 30000)...\n", journal.c_str());
    bench::HarnessOptions logged = bare;
    logged.journal_path = journal;
    logged.resume = false;
    logged.watchdog_ms = 30000.0;  // generous: supervision cost, not timeouts
    const Phase wal = run_phase(logged, config, dies, envs, powers, curve);
    std::printf("      %.2f s   (%llu records, %llu fsyncs)\n", wal.seconds,
                static_cast<unsigned long long>(wal.triage.journal.records_written),
                static_cast<unsigned long long>(wal.triage.journal.fsyncs));

    std::printf("[3/3] resumed (--resume, all cells replayed)...\n");
    bench::HarnessOptions again = logged;
    again.resume = true;
    const Phase replay = run_phase(again, config, dies, envs, powers, curve);
    std::printf("      %.2f s   (%llu cells replayed, %llu re-measured)\n", replay.seconds,
                static_cast<unsigned long long>(replay.triage.journal.records_replayed),
                static_cast<unsigned long long>(replay.triage.journal.records_written));

    const bool identical = bit_identical(plain, wal) && bit_identical(plain, replay);
    const bool fully_replayed = replay.triage.journal.records_written == 0 &&
                                replay.triage.count(exec::CellOutcome::kReplayed) ==
                                    dies.size() * envs.size();
    const double overhead =
        plain.seconds > 0.0 ? (wal.seconds - plain.seconds) / plain.seconds : 0.0;

    bench::TablePrinter table({"phase", "seconds", "records", "replayed"});
    table.row({"bare", bench::TablePrinter::num(plain.seconds), "0", "0"});
    table.row({"journaled", bench::TablePrinter::num(wal.seconds),
               std::to_string(wal.triage.journal.records_written), "0"});
    table.row({"resumed", bench::TablePrinter::num(replay.seconds),
               std::to_string(replay.triage.journal.records_written),
               std::to_string(replay.triage.journal.records_replayed)});
    std::printf("journaling overhead: %+.1f%% (budget 5%%)\n", overhead * 100.0);
    std::printf("results bit-identical across all phases: %s\n", identical ? "yes" : "NO");
    std::printf("resume re-measured nothing: %s\n", fully_replayed ? "yes" : "NO");

    std::FILE* f = std::fopen(out_path, "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"resilience_overhead\",\n");
        std::fprintf(f, "  \"campaign\": {\"dies\": %zu, \"envs\": %zu, \"sweep_points\": %zu, "
                        "\"jobs\": %zu},\n",
                     dies.size(), envs.size(), powers.size(), base.effective_jobs());
        std::fprintf(f, "  \"bare_seconds\": %.3f,\n", plain.seconds);
        std::fprintf(f, "  \"journaled_seconds\": %.3f,\n", wal.seconds);
        std::fprintf(f, "  \"resumed_seconds\": %.3f,\n", replay.seconds);
        std::fprintf(f, "  \"journal_records\": %llu,\n",
                     static_cast<unsigned long long>(wal.triage.journal.records_written));
        std::fprintf(f, "  \"journal_bytes\": %llu,\n",
                     static_cast<unsigned long long>(wal.triage.journal.bytes_written));
        std::fprintf(f, "  \"journal_fsyncs\": %llu,\n",
                     static_cast<unsigned long long>(wal.triage.journal.fsyncs));
        std::fprintf(f, "  \"resume_replayed\": %llu,\n",
                     static_cast<unsigned long long>(replay.triage.journal.records_replayed));
        std::fprintf(f, "  \"overhead_pct\": %.2f,\n", overhead * 100.0);
        std::fprintf(f, "  \"within_budget\": %s,\n", overhead < 0.05 ? "true" : "false");
        std::fprintf(f, "  \"bit_identical\": %s,\n", identical ? "true" : "false");
        std::fprintf(f, "  \"fully_replayed\": %s\n", fully_replayed ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", out_path);
    }
    std::remove(journal.c_str());
    return (identical && fully_replayed) ? 0 : 1;
}
