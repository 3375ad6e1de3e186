// Two-tier surrogate serving: cold-vs-warm wall-clock and error-bound audit.
//
// Three passes over the same (die x corner x Pin) power campaign:
//   1. reference — surrogate disabled: the full-transient ground truth,
//   2. cold      — surrogate enabled on an empty store: the completed-
//      generation rule keeps the tier observe-only (a surface never serves
//      the run that is still extending its envelope), the full solves train
//      the response surfaces, and the results must stay BIT-IDENTICAL to
//      the reference,
//   3. warm      — a fresh process-equivalent (new Exec) loads the persisted
//      store and answers every in-envelope query from the fitted surfaces
//      through the production measurement path, no solver, no session, no DC
//      calibration.
// Contracts checked (exit nonzero on violation):
//   * cold results bit-identical to reference,
//   * every warm reading is a surrogate hit (fallback never needed on the
//     training grid) and agrees with the batched evaluate() path bit-exactly,
//   * |warm Vout - reference Vout| <= the surface's published error bound,
//   * warm-path speedup >= 10x over the reference campaign.
//
// Usage: surrogate_speedup [--fast] [--jobs N] [--dies N] [--out FILE]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

namespace {

using namespace rfabm;

constexpr double kCarrierHz = 1.5e9;

struct CellResult {
    std::vector<double> vout;  // per sweep point, settled detector Vout (V)
    std::vector<double> dbm;   // per sweep point, converted reading
};

struct Phase {
    double seconds = 0.0;
    std::vector<CellResult> cells;  // die-major, env-minor
    exec::CampaignMetrics::Snapshot metrics;
};

/// One full campaign through the harness engine (reference and cold passes).
Phase run_campaign(const bench::HarnessOptions& opts, const core::RfAbmChipConfig& config,
                   const std::vector<circuit::ProcessCorner>& dies,
                   const std::vector<core::OperatingConditions>& envs,
                   const std::vector<double>& powers, const rf::MonotoneCurve& curve) {
    bench::Exec exec(opts);  // fresh pool + cold calibration cache per phase
    Phase phase;
    const auto t0 = std::chrono::steady_clock::now();
    const auto raw = exec.map_die_env<std::vector<double>>(
        config, dies, envs, [&](bench::DutSession& dut, std::size_t, std::size_t) {
            std::vector<double> out;
            out.reserve(powers.size() * 2);
            for (const double p : powers) {
                dut.chip.set_rf(p, kCarrierHz);
                const core::PowerMeasurement m = dut.controller.measure_power(curve);
                out.push_back(m.vout);
                out.push_back(m.dbm);
            }
            return out;
        });
    const auto t1 = std::chrono::steady_clock::now();
    phase.seconds = std::chrono::duration<double>(t1 - t0).count();
    phase.metrics = exec.metrics().snapshot();
    phase.cells.reserve(raw.size());
    for (const auto& flat : raw) {
        CellResult c;
        for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
            c.vout.push_back(flat[i]);
            c.dbm.push_back(flat[i + 1]);
        }
        phase.cells.push_back(std::move(c));
    }
    return phase;
    // Exec's destructor persists the surrogate store (when enabled), exactly
    // as a real campaign process would on exit.
}

bool bit_identical(const Phase& a, const Phase& b) {
    if (a.cells.size() != b.cells.size()) return false;
    for (std::size_t c = 0; c < a.cells.size(); ++c) {
        if (a.cells[c].vout != b.cells[c].vout) return false;
        if (a.cells[c].dbm != b.cells[c].dbm) return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    bench::HarnessOptions opts = bench::parse_options(argc, argv);
    const char* out_path = opts.out_path.empty() ? "BENCH_surrogate.json" : opts.out_path.c_str();
    bench::banner("surrogate_speedup: two-tier serving, cold vs warm",
                  "serving-architecture benchmark (not a paper artifact)", opts);

    const core::RfAbmChipConfig config{};
    // 25 sweep points per cell, past the store's default refit_min_samples
    // (24), so every (die, corner) key is fitted by the time the cold Exec
    // closes its generation (full-population refit on save).  The span stays
    // inside the detector's monotone core, where the cubic-in-Pin basis
    // holds the residual down.
    const std::vector<double> powers = rf::arange(-9.0, 3.0, 0.5);
    const std::vector<circuit::ProcessCorner> dies = opts.dies();
    const std::vector<core::OperatingConditions> envs = opts.envs();

    std::printf("acquiring nominal reference curve...\n");
    core::RfAbmChip nominal{config};
    core::MeasurementController ctl(nominal);
    ctl.open_session();
    core::dc_calibrate(ctl);
    const rf::MonotoneCurve curve =
        bench::acquire_trimmed_power_curve(ctl, rf::arange(-18.0, 6.0, 1.0), kCarrierHz);

    const std::string store_path = std::string(out_path) + ".sur";
    std::remove(store_path.c_str());  // guarantee a cold store

    bench::HarnessOptions sur_opts = opts;
    sur_opts.surrogate_path = store_path;
    // This bench audits the empirical error against the published bound
    // directly; the serving budget stays out of the way so a looser-than-
    // default fit shows up as a bound-check failure, not as silent fallback.
    sur_opts.surrogate_max_bound = 0.0;

    std::printf("campaign: %zu dies x %zu corners x %zu sweep points\n", dies.size(),
                envs.size(), powers.size());

    std::printf("[1/3] reference (surrogate disabled)...\n");
    const Phase reference = run_campaign(opts, config, dies, envs, powers, curve);
    std::printf("      %.2f s\n", reference.seconds);

    std::printf("[2/3] cold (surrogate enabled, empty store; trains surfaces)...\n");
    const Phase cold = run_campaign(sur_opts, config, dies, envs, powers, curve);
    std::printf("      %.2f s\n", cold.seconds);

    // Warm pass: a fresh Exec loads the persisted store.  Served queries need
    // no 1149.4 session, no DC calibration and no solver: the cell builds a
    // bare chip + controller, binds the store, and reads.
    std::printf("[3/3] warm (fresh process, persisted store)...\n");
    Phase warm;
    std::size_t warm_non_hits = 0;
    bool batch_consistent = true;
    double max_abs_err_v = 0.0;
    double max_bound_margin = -1e300;  // max over cells of (|err| - bound)
    {
        bench::Exec exec(sur_opts);  // loads + verifies the store
        rf::surrogate::SurrogateStore* store = exec.surrogate();
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t d = 0; d < dies.size(); ++d) {
            for (std::size_t e = 0; e < envs.size(); ++e) {
                core::RfAbmChip chip{config, envs[e], dies[d]};
                core::MeasureOptions mopts;
                mopts.surrogate = exec.surrogate_binding(config, dies[d], envs[e]);
                core::MeasurementController controller(chip, mopts);
                CellResult c;
                for (const double p : powers) {
                    chip.set_rf(p, kCarrierHz);
                    const core::PowerMeasurement m = controller.measure_power(curve);
                    if (!m.from_surrogate) ++warm_non_hits;
                    c.vout.push_back(m.vout);
                    c.dbm.push_back(m.dbm);
                }
                warm.cells.push_back(std::move(c));
            }
        }
        const auto t1 = std::chrono::steady_clock::now();
        warm.seconds = std::chrono::duration<double>(t1 - t0).count();
        exec.fold_surrogate_metrics();  // hand-rolled cells bypass map_die_env
        warm.metrics = exec.metrics().snapshot();

        // Error-bound audit + batched-evaluation cross-check, per cell.
        for (std::size_t d = 0; d < dies.size(); ++d) {
            for (std::size_t e = 0; e < envs.size(); ++e) {
                const std::size_t cell = d * envs.size() + e;
                const core::SurrogateBinding b =
                    exec.surrogate_binding(config, dies[d], envs[e]);
                const rf::surrogate::SurrogateKey key{
                    static_cast<std::uint32_t>(rf::surrogate::Quantity::kPowerVout), b.die,
                    b.corner};
                const double bound = store->surface(key).error_bound();
                std::vector<rf::surrogate::Query> queries;
                const double vdd = envs[e].vdd_pdet;
                for (const double p : powers) queries.push_back({p, kCarrierHz, vdd});
                std::vector<double> batched;
                const auto decision = store->try_serve(key, queries, &batched, nullptr);
                if (decision != rf::surrogate::Decision::kHit ||
                    batched != warm.cells[cell].vout) {
                    batch_consistent = false;
                }
                for (std::size_t i = 0; i < powers.size(); ++i) {
                    const double err =
                        std::fabs(warm.cells[cell].vout[i] - reference.cells[cell].vout[i]);
                    if (err > max_abs_err_v) max_abs_err_v = err;
                    if (err - bound > max_bound_margin) max_bound_margin = err - bound;
                }
            }
        }
    }
    std::printf("      %.4f s\n", warm.seconds);

    const bool cold_identical = bit_identical(reference, cold);
    const bool all_hits = warm_non_hits == 0;
    const bool within_bound = max_bound_margin <= 0.0;
    const double speedup_warm =
        warm.seconds > 0.0 ? reference.seconds / warm.seconds : 0.0;
    const double cold_overhead =
        reference.seconds > 0.0 ? cold.seconds / reference.seconds : 0.0;
    const bool speedup_ok = speedup_warm >= 10.0;

    bench::TablePrinter table({"phase", "seconds", "speedup", "sur hits", "sur served"});
    table.row({"reference", bench::TablePrinter::num(reference.seconds), "1.00", "-", "-"});
    table.row({"cold", bench::TablePrinter::num(cold.seconds),
               bench::TablePrinter::num(cold.seconds > 0.0 ? reference.seconds / cold.seconds
                                                           : 0.0),
               std::to_string(cold.metrics.surrogate_hits),
               std::to_string(cold.metrics.surrogate_lookups())});
    table.row({"warm", bench::TablePrinter::num(warm.seconds, 4),
               bench::TablePrinter::num(speedup_warm),
               std::to_string(warm.metrics.surrogate_hits),
               std::to_string(warm.metrics.surrogate_lookups())});

    std::printf("cold results bit-identical to reference: %s\n", cold_identical ? "yes" : "NO");
    std::printf("warm pass all served (no fallback): %s (%zu fell back)\n",
                all_hits ? "yes" : "NO", warm_non_hits);
    std::printf("warm |Vout error| max %.3e V, within published bound: %s\n", max_abs_err_v,
                within_bound ? "yes" : "NO");
    std::printf("batched evaluate() agrees bit-exactly: %s\n", batch_consistent ? "yes" : "NO");
    std::printf("warm-path speedup %.1fx (>= 10x required): %s\n", speedup_warm,
                speedup_ok ? "yes" : "NO");

    std::FILE* f = std::fopen(out_path, "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"surrogate_speedup\",\n");
        std::fprintf(f,
                     "  \"campaign\": {\"dies\": %zu, \"envs\": %zu, \"sweep_points\": %zu},\n",
                     dies.size(), envs.size(), powers.size());
        std::fprintf(f, "  \"reference\": {\"seconds\": %.3f},\n", reference.seconds);
        std::fprintf(f,
                     "  \"cold\": {\"seconds\": %.3f, \"overhead_vs_reference\": %.3f, "
                     "\"hits\": %llu, \"misses\": %llu, \"out_of_envelope\": %llu, "
                     "\"refits\": %llu},\n",
                     cold.seconds, cold_overhead,
                     static_cast<unsigned long long>(cold.metrics.surrogate_hits),
                     static_cast<unsigned long long>(cold.metrics.surrogate_misses),
                     static_cast<unsigned long long>(cold.metrics.surrogate_out_of_envelope),
                     static_cast<unsigned long long>(cold.metrics.surrogate_refits));
        std::fprintf(f,
                     "  \"warm\": {\"seconds\": %.6f, \"speedup\": %.1f, \"hits\": %llu, "
                     "\"fallbacks\": %zu},\n",
                     warm.seconds, speedup_warm,
                     static_cast<unsigned long long>(warm.metrics.surrogate_hits),
                     warm_non_hits);
        std::fprintf(f, "  \"max_abs_error_v\": %.6e,\n", max_abs_err_v);
        std::fprintf(f, "  \"checks\": {\"cold_bit_identical\": %s, \"warm_all_hits\": %s, "
                        "\"within_bound\": %s, \"batch_consistent\": %s, \"speedup_ok\": %s}\n",
                     cold_identical ? "true" : "false", all_hits ? "true" : "false",
                     within_bound ? "true" : "false", batch_consistent ? "true" : "false",
                     speedup_ok ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", out_path);
    }
    std::remove(store_path.c_str());

    const bool ok =
        cold_identical && all_hits && within_bound && batch_consistent && speedup_ok;
    return ok ? 0 : 1;
}
