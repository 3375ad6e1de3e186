// The engine's determinism contract: results are bit-identical for any
// worker count.  Verified on synthetic workloads whose tasks draw from
// per-task RNG substreams — the pattern real campaigns follow.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "rf/random.hpp"

namespace rfabm::exec {
namespace {

/// A campaign of @p dies x @p measurements where every task derives its value
/// from its own substream seed and writes its own slot.
std::vector<double> run_synthetic(std::size_t jobs, std::size_t num_dies,
                                  std::size_t num_measurements, std::uint64_t seed) {
    std::vector<double> results(num_dies * num_measurements, 0.0);
    std::vector<DieChain> chains(num_dies);
    for (std::size_t d = 0; d < num_dies; ++d) {
        for (std::size_t m = 0; m < num_measurements; ++m) {
            const std::size_t slot = d * num_measurements + m;
            chains[d].measurements.push_back({[&results, slot, seed](TaskContext&) {
                rfabm::rf::Xoshiro256 rng(substream_seed(seed, slot));
                double acc = 0.0;
                for (int i = 0; i < 100; ++i) acc += rng.normal();
                results[slot] = acc;
            }});
        }
    }
    CampaignOptions opts;
    opts.jobs = jobs;
    const TaskGraphResult r = run_campaign(chains, opts);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ran, results.size());
    return results;
}

TEST(Determinism, SerialAndEightWorkersBitIdentical) {
    const std::vector<double> serial = run_synthetic(1, 6, 4, 20050307);
    const std::vector<double> parallel = run_synthetic(8, 6, 4, 20050307);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Exact equality on purpose: the contract is bit-identical, not close.
        EXPECT_EQ(serial[i], parallel[i]) << "slot " << i;
    }
}

TEST(Determinism, RepeatedParallelRunsBitIdentical) {
    const std::vector<double> a = run_synthetic(8, 6, 4, 7);
    const std::vector<double> b = run_synthetic(8, 6, 4, 7);
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiffer) {
    const std::vector<double> a = run_synthetic(4, 3, 3, 1);
    const std::vector<double> b = run_synthetic(4, 3, 3, 2);
    EXPECT_NE(a, b);
}

/// The parallel twin of circuit::run_monte_carlo: the population is
/// pre-sampled from one RNG up front, then the measurement closures fan out,
/// each writing its own sample's slot.
std::vector<circuit::MonteCarloSample> parallel_monte_carlo(
    std::size_t trials, std::uint64_t seed,
    const std::function<double(const circuit::ProcessCorner&)>& measure,
    const CampaignOptions& options, TaskGraphResult* result) {
    std::vector<circuit::MonteCarloSample> samples = circuit::presample_dies(trials, seed, {});
    std::vector<DieChain> chains(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        chains[i].measurements.push_back({[&samples, &measure, i](TaskContext&) {
            samples[i].value = measure(samples[i].corner);
        }});
    }
    *result = run_campaign(chains, options);
    return samples;
}

TEST(Determinism, ParallelMonteCarloMatchesSerialDriver) {
    // The parallel Monte-Carlo twin pre-samples the same population and must
    // reproduce the serial driver's samples exactly, corner and value both.
    const auto measure = [](const circuit::ProcessCorner& corner) {
        // Cheap stand-in for a circuit solve: any deterministic function of
        // the corner.
        return corner.nmos_vt_shift * 1e3 + corner.nmos_kp_factor + corner.res_factor;
    };
    const auto serial = circuit::run_monte_carlo(24, 99, {}, measure);

    CampaignOptions opts;
    opts.jobs = 8;
    TaskGraphResult result;
    const auto parallel = parallel_monte_carlo(24, 99, measure, opts, &result);

    EXPECT_TRUE(result.ok());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].value, parallel[i].value);
        EXPECT_EQ(serial[i].corner.nmos_vt_shift, parallel[i].corner.nmos_vt_shift);
        EXPECT_EQ(serial[i].corner.pmos_vt_shift, parallel[i].corner.pmos_vt_shift);
        EXPECT_EQ(serial[i].corner.nmos_kp_factor, parallel[i].corner.nmos_kp_factor);
        EXPECT_EQ(serial[i].corner.res_factor, parallel[i].corner.res_factor);
        EXPECT_EQ(serial[i].corner.cap_factor, parallel[i].corner.cap_factor);
    }
}

TEST(Determinism, PresampledPopulationIsScheduleIndependent) {
    // presample_dies must not depend on anything but (trials, seed, spread):
    // the population for 10 trials is a strict prefix of the one for 20.
    const auto small = circuit::presample_dies(10, 5);
    const auto large = circuit::presample_dies(20, 5);
    ASSERT_EQ(small.size(), 10u);
    ASSERT_EQ(large.size(), 20u);
    for (std::size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(small[i].corner.nmos_vt_shift, large[i].corner.nmos_vt_shift);
        EXPECT_EQ(small[i].corner.cap_factor, large[i].corner.cap_factor);
    }
}

}  // namespace
}  // namespace rfabm::exec
