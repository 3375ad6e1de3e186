// Monte-Carlo process-variation driver.
//
// Reproducing the paper's "error vs. simulated ... with/without process
// variation" series means re-running a measurement over many virtual dies.
// run_monte_carlo() samples dies deterministically from a seed and hands each
// corner to a caller-supplied measurement closure.
#pragma once

#include <functional>
#include <vector>

#include "circuit/process.hpp"
#include "rf/random.hpp"

namespace rfabm::circuit {

/// One Monte-Carlo sample: the die and the measurement value it produced.
struct MonteCarloSample {
    ProcessCorner corner;
    double value = 0.0;
};

/// Draw the whole die population up front (values zeroed).  Sampling every
/// corner before any measurement runs is what makes serial and parallel
/// campaigns draw identical populations for a given seed: the RNG sequence
/// depends only on the seed and trial count, never on how (or in what order)
/// the measurements are later scheduled.
inline std::vector<MonteCarloSample> presample_dies(std::size_t trials, std::uint64_t seed,
                                                    const ProcessSpread& spread = {}) {
    rfabm::rf::Xoshiro256 rng(seed);
    std::vector<MonteCarloSample> samples;
    samples.reserve(trials);
    for (std::size_t i = 0; i < trials; ++i) {
        MonteCarloSample s;
        s.corner = sample_corner(rng, spread);
        samples.push_back(s);
    }
    return samples;
}

/// Run @p trials measurements, one per sampled die.  The closure receives the
/// corner and returns the measured quantity (e.g. power error in dB).
/// Deterministic for a given seed/spread/trials.  The population is fully
/// pre-sampled before the first measurement (see presample_dies), so a
/// parallel driver over the same population produces bit-identical results.
inline std::vector<MonteCarloSample> run_monte_carlo(
    std::size_t trials, std::uint64_t seed, const ProcessSpread& spread,
    const std::function<double(const ProcessCorner&)>& measure) {
    std::vector<MonteCarloSample> samples = presample_dies(trials, seed, spread);
    for (MonteCarloSample& s : samples) s.value = measure(s.corner);
    return samples;
}

/// The five bracketing named corners, nominal first.  Corner sweeps with
/// these five dies bound the Monte-Carlo population at far lower cost.
inline std::vector<ProcessCorner> bracketing_corners(const ProcessSpread& spread = {}) {
    return {named_corner(CornerName::kTT, spread), named_corner(CornerName::kFF, spread),
            named_corner(CornerName::kSS, spread), named_corner(CornerName::kFS, spread),
            named_corner(CornerName::kSF, spread)};
}

}  // namespace rfabm::circuit
