// Reproduces the section-3 claim (T3 in DESIGN.md): the minimum input power
// for frequency measurement is +5 dBm on the basic ABM and -5 dBm with
// preamplifiers.
//
// Method: at the band centre, sweep the drive power in 1-dB steps on each
// variant across the environmental corners and report the lowest power at
// which the frequency read is valid (prescaler toggling, converter settled)
// at every corner.
#include <cmath>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

int main(int argc, char** argv) {
    using namespace rfabm;
    const bench::HarnessOptions opts = bench::parse_options(argc, argv);
    bench::banner("tab_freq_sensitivity: minimum power for frequency measurement",
                  "Section 3 claim (T3): +5 dBm basic, -5 dBm preamplified", opts);

    struct Variant {
        const char* name;
        bool with_preamp;
        double grid_lo;
        double grid_hi;
        double paper_min;
    };
    const Variant variants[] = {
        {"basic ABM", false, -2.0, 10.0, 5.0},
        {"preamplified ABM", true, -12.0, 2.0, -5.0},
    };

    // One frequency curve serves both variants: the converter behind the
    // prescaler is the same on both, and only the basic ABM's input toggles
    // the prescaler across the whole band (at +6 dBm).  The preamplified
    // input compresses and, at drives it still handles, toggles the
    // prescaler only near 1.5 GHz, so no curve taken through it is monotone.
    const bench::NominalReference ref = bench::acquire_reference(
        core::RfAbmChipConfig{}, rf::arange(-20.0, 7.0, 1.0), rf::arange(0.9, 2.1, 0.1),
        1.5e9, 6.0);

    bench::Exec exec(opts);
    for (const Variant& v : variants) {
        core::RfAbmChipConfig config;
        config.with_preamp = v.with_preamp;
        std::printf("\n-- %s --\n", v.name);

        const std::vector<double> powers = rf::arange(v.grid_lo, v.grid_hi, 1.0);
        std::vector<int> valid_count(powers.size(), 0);
        std::vector<double> worst_err(powers.size(), 0.0);
        // One engine cell per environmental corner; merges are count/max
        // (order-free).  {valid, |f_err|} per drive-power index.
        using CellReads = std::vector<std::pair<bool, double>>;
        const auto cells = exec.map_die_env<CellReads>(
            config, {circuit::ProcessCorner{}}, opts.envs(),
            [&](bench::DutSession& dut, std::size_t, std::size_t) {
                CellReads reads(powers.size(), {false, 0.0});
                // Sweep downward so the converter tracks from a strong signal.
                for (std::size_t i = powers.size(); i-- > 0;) {
                    dut.chip.set_rf(powers[i], 1.5e9);
                    const auto m = dut.controller.measure_frequency(ref.freq_curve);
                    if (m.valid) reads[i] = {true, std::fabs(m.ghz - 1.5)};
                }
                return reads;
            });
        const int num_envs = static_cast<int>(cells.size());
        for (const auto& cell : cells) {
            for (std::size_t i = 0; i < powers.size(); ++i) {
                if (cell[i].first) {
                    ++valid_count[i];
                    worst_err[i] = std::max(worst_err[i], cell[i].second);
                }
            }
        }

        bench::TablePrinter table({"Pin/dBm", "valid_corners", "worst_f_err/GHz"});
        double measured_min = v.grid_hi + 1.0;
        for (std::size_t i = 0; i < powers.size(); ++i) {
            const bool all = valid_count[i] == num_envs;
            table.row({bench::TablePrinter::num(powers[i], 0),
                       bench::TablePrinter::num(valid_count[i], 0) + "/" +
                           bench::TablePrinter::num(num_envs, 0),
                       all ? bench::TablePrinter::num(worst_err[i], 3) : "-"});
            if (all && powers[i] < measured_min) measured_min = powers[i];
        }
        std::printf("\n%s measured minimum: %+.0f dBm (paper: %+.0f dBm)\n", v.name,
                    measured_min, v.paper_min);
    }
    exec.print_summary();
    exec.print_triage();
    return 0;
}
