// Two-tier surrogate serving, tier 1 in isolation: response-surface fitting
// (envelope + cross-validated error bound), the store's serving decisions,
// and the journal-discipline persistence (save / load / shard merge).
#include "rf/surrogate/store.hpp"
#include "rf/surrogate/surface.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace rfabm::rf::surrogate {
namespace {

// Ground truth used throughout: a smooth detector-like response that lies
// inside the surface's polynomial basis, so an honest fit recovers it to
// numerical noise and the published error bound collapses.
double truth(double pin_dbm, double freq_hz, double vdd) {
    const double f_ghz = freq_hz / 1e9;
    return 0.8 + 0.05 * pin_dbm + 0.002 * pin_dbm * pin_dbm + 0.03 * f_ghz + 0.1 * vdd;
}

std::vector<Sample> grid_samples() {
    std::vector<Sample> samples;
    for (double p = -10.0; p <= 2.01; p += 2.0) {
        for (double f = 1.0e9; f <= 2.01e9; f += 0.5e9) {
            for (double v = 1.7; v <= 1.901; v += 0.1) {
                samples.push_back({Query{p, f, v}, truth(p, f, v)});
            }
        }
    }
    return samples;
}

std::string temp_path(const char* stem) { return test::temp_path(std::string(stem) + ".sur"); }

TEST(ResponseSurface, FitRecoversSmoothResponseWithTightBound) {
    const ResponseSurface s = ResponseSurface::fit(grid_samples(), FitOptions{});
    ASSERT_TRUE(s.valid());
    // Off-grid, in-envelope probes: the truth is in the basis, so the model
    // agrees to numerical noise and the bound reflects that.
    for (const Query q : {Query{-7.3, 1.2e9, 1.75}, Query{-1.1, 1.9e9, 1.88}}) {
        EXPECT_TRUE(s.envelope().contains(q));
        EXPECT_NEAR(s.evaluate(q), truth(q.pin_dbm, q.freq_hz, q.vdd), 1e-6);
    }
    EXPECT_GT(s.error_bound(), 0.0);
    EXPECT_LT(s.error_bound(), 1e-6);
    EXPECT_LE(s.cv_p95(), s.error_bound());
    EXPECT_EQ(s.sample_count(), grid_samples().size());
}

TEST(ResponseSurface, FitRefusesUnderdeterminedPopulations) {
    std::vector<Sample> few = grid_samples();
    few.resize(5);
    EXPECT_FALSE(ResponseSurface::fit(few, FitOptions{}).valid());
    EXPECT_FALSE(ResponseSurface::fit({}, FitOptions{}).valid());
}

TEST(ResponseSurface, EnvelopeAdmitsTrainingBoxAndRefusesBeyond) {
    const ResponseSurface s = ResponseSurface::fit(grid_samples(), FitOptions{});
    ASSERT_TRUE(s.valid());
    // Training-grid corners are inside (the margin exists for exactly this).
    EXPECT_TRUE(s.envelope().contains(Query{-10.0, 1.0e9, 1.7}));
    EXPECT_TRUE(s.envelope().contains(Query{2.0, 2.0e9, 1.9}));
    // Clearly outside on each axis: refused, never extrapolated.
    EXPECT_FALSE(s.envelope().contains(Query{5.0, 1.5e9, 1.8}));
    EXPECT_FALSE(s.envelope().contains(Query{-5.0, 3.0e9, 1.8}));
    EXPECT_FALSE(s.envelope().contains(Query{-5.0, 1.5e9, 1.2}));
}

TEST(ResponseSurface, DegenerateAxisIsPinnedNotExtrapolated) {
    // Train at a single supply: the vdd axis carries no information, so the
    // surface must refuse queries at any other supply instead of pretending.
    std::vector<Sample> samples;
    for (double p = -10.0; p <= 2.01; p += 0.5) {
        samples.push_back({Query{p, 1.5e9, 1.8}, truth(p, 1.5e9, 1.8)});
    }
    const ResponseSurface s = ResponseSurface::fit(samples, FitOptions{});
    ASSERT_TRUE(s.valid());
    EXPECT_TRUE(s.envelope().degenerate[1]);
    EXPECT_TRUE(s.envelope().degenerate[2]);
    EXPECT_TRUE(s.envelope().contains(Query{-4.0, 1.5e9, 1.8}));
    EXPECT_FALSE(s.envelope().contains(Query{-4.0, 1.5e9, 1.75}));
    EXPECT_FALSE(s.envelope().contains(Query{-4.0, 1.4e9, 1.8}));
}

TEST(ResponseSurface, BatchEvaluationMatchesScalarExactly) {
    const ResponseSurface s = ResponseSurface::fit(grid_samples(), FitOptions{});
    ASSERT_TRUE(s.valid());
    std::vector<Query> queries;
    for (double p = -9.5; p <= 1.51; p += 1.0) queries.push_back({p, 1.3e9, 1.82});
    const std::vector<double> batch = s.evaluate(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batch[i], s.evaluate(queries[i])) << i;  // bitwise, not NEAR
    }
}

TEST(ResponseSurface, EncodeDecodeRoundTripsBitExactly) {
    const ResponseSurface s = ResponseSurface::fit(grid_samples(), FitOptions{});
    ASSERT_TRUE(s.valid());
    const ResponseSurface d = ResponseSurface::decode(s.encode());
    ASSERT_TRUE(d.valid());
    EXPECT_EQ(d.error_bound(), s.error_bound());
    EXPECT_EQ(d.cv_p95(), s.cv_p95());
    EXPECT_EQ(d.sample_count(), s.sample_count());
    EXPECT_EQ(d.basis_size(), s.basis_size());
    for (const Query q : {Query{-7.3, 1.2e9, 1.75}, Query{0.5, 1.8e9, 1.71}}) {
        EXPECT_EQ(d.envelope().contains(q), s.envelope().contains(q));
        EXPECT_EQ(d.evaluate(q), s.evaluate(q));  // bitwise round-trip
    }
}

TEST(ResponseSurface, DecodeRejectsStructurallyBrokenBlobs) {
    EXPECT_FALSE(ResponseSurface::decode({}).valid());
    EXPECT_FALSE(ResponseSurface::decode({1.0, 2.0}).valid());
    std::vector<double> blob = ResponseSurface::fit(grid_samples(), FitOptions{}).encode();
    blob.resize(blob.size() / 2);  // truncated mid-structure
    EXPECT_FALSE(ResponseSurface::decode(blob).valid());
}

// ---------------------------------------------------------------------------
// SurrogateStore: serving decisions and the learn-then-hit lifecycle.

StoreOptions fast_learning_options() {
    StoreOptions opts;
    opts.refit_min_samples = 12;
    return opts;
}

SurrogateKey test_key() { return SurrogateKey{0, 0xD1Eu, 0xC0Eu}; }

void feed_power_sweep(SurrogateStore* store, int points) {
    for (int i = 0; i < points; ++i) {
        const double p = -10.0 + i;
        store->observe(test_key(), Query{p, 1.5e9, 1.8}, truth(p, 1.5e9, 1.8));
    }
}

TEST(SurrogateStore, MissesThenLearnsThenHits) {
    SurrogateStore store(fast_learning_options());
    double value = 0.0;
    double bound = -1.0;
    EXPECT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &value, &bound),
              Decision::kMiss);
    feed_power_sweep(&store, 12);
    EXPECT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &value, &bound),
              Decision::kHit);
    EXPECT_NEAR(value, truth(-5.0, 1.5e9, 1.8), 1e-6);
    EXPECT_GE(bound, 0.0);
    EXPECT_LE(bound, store.options().max_bound);
    const StoreCounters c = store.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.observed, 12u);
    EXPECT_EQ(c.refits, 1u);
    EXPECT_EQ(store.surfaces(), 1u);
}

TEST(SurrogateStore, RefusesOutOfEnvelopeQueries) {
    SurrogateStore store(fast_learning_options());
    feed_power_sweep(&store, 12);
    double value = 0.0;
    EXPECT_EQ(store.try_serve(test_key(), Query{40.0, 1.5e9, 1.8}, &value),
              Decision::kOutOfEnvelope);
    EXPECT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.4}, &value),
              Decision::kOutOfEnvelope);
    EXPECT_EQ(store.counters().out_of_envelope, 2u);
    EXPECT_EQ(store.counters().hits, 0u);
}

TEST(SurrogateStore, RefusesSurfacesOverTheErrorBudget) {
    StoreOptions opts = fast_learning_options();
    opts.max_bound = 1e-18;  // tighter than numerical noise: nothing qualifies
    SurrogateStore store(opts);
    feed_power_sweep(&store, 12);
    double value = 0.0;
    EXPECT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &value),
              Decision::kBoundTooLoose);
    EXPECT_EQ(store.counters().bound_too_loose, 1u);
}

TEST(SurrogateStore, BatchedServingIsAllOrNothing) {
    SurrogateStore store(fast_learning_options());
    feed_power_sweep(&store, 12);
    // One out-of-envelope point poisons the whole sweep: nothing is served,
    // one (identical) decision is tallied per query.
    std::vector<Query> sweep{{-8.0, 1.5e9, 1.8}, {-5.0, 1.5e9, 1.8}, {40.0, 1.5e9, 1.8}};
    std::vector<double> values;
    EXPECT_EQ(store.try_serve(test_key(), sweep, &values), Decision::kOutOfEnvelope);
    EXPECT_TRUE(values.empty());
    EXPECT_EQ(store.counters().out_of_envelope, 3u);
    EXPECT_EQ(store.counters().hits, 0u);
    // Fully in-envelope: every point served, bitwise equal to scalar serving.
    sweep.pop_back();
    double bound = 0.0;
    EXPECT_EQ(store.try_serve(test_key(), sweep, &values, &bound), Decision::kHit);
    ASSERT_EQ(values.size(), 2u);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        double scalar = 0.0;
        EXPECT_EQ(store.try_serve(test_key(), sweep[i], &scalar), Decision::kHit);
        EXPECT_EQ(values[i], scalar);
    }
    EXPECT_EQ(store.counters().hits, 4u);
}

TEST(SurrogateStore, RetentionCapAgesOldestSamplesOut) {
    StoreOptions opts = fast_learning_options();
    opts.max_samples_per_key = 16;
    SurrogateStore store(opts);
    feed_power_sweep(&store, 40);
    EXPECT_EQ(store.total_samples(), 16u);
    EXPECT_EQ(store.counters().observed, 40u);
}

TEST(SurrogateStore, SaveLoadRoundTripServesIdentically) {
    const std::string path = temp_path("roundtrip");
    SurrogateStore store(fast_learning_options());
    feed_power_sweep(&store, 12);
    double before = 0.0;
    ASSERT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &before), Decision::kHit);
    ASSERT_TRUE(store.save(path));

    SurrogateStore fresh(fast_learning_options());
    ASSERT_TRUE(fresh.load(path));
    EXPECT_EQ(fresh.surfaces(), 1u);
    EXPECT_EQ(fresh.total_samples(), 12u);
    double after = 0.0;
    EXPECT_EQ(fresh.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &after), Decision::kHit);
    EXPECT_EQ(after, before);  // the persisted surface is bit-identical
    EXPECT_EQ(fresh.counters().load_rejected, 0u);
    std::remove(path.c_str());
}

TEST(SurrogateStore, LoadRejectsMissingFileAndStaysEmpty) {
    SurrogateStore store(fast_learning_options());
    EXPECT_FALSE(store.load(temp_path("never_written")));
    // A missing file is a cold start, not a rejected image.
    EXPECT_EQ(store.counters().load_rejected, 0u);
    EXPECT_EQ(store.surfaces(), 0u);
    double value = 0.0;
    EXPECT_EQ(store.try_serve(test_key(), Query{-5.0, 1.5e9, 1.8}, &value), Decision::kMiss);
}

TEST(SurrogateStore, MergeFoldsShardStoresAndRefitsPooled) {
    // Two shards each learned half the power range of the SAME key; the
    // coordinator's merge must pool them into one surface spanning both.
    const std::string a = temp_path("shard_a");
    const std::string b = temp_path("shard_b");
    {
        SurrogateStore shard(fast_learning_options());
        for (double p = -10.0; p <= -4.01; p += 0.5) {
            shard.observe(test_key(), Query{p, 1.5e9, 1.8}, truth(p, 1.5e9, 1.8));
        }
        ASSERT_TRUE(shard.save(a));
    }
    {
        SurrogateStore shard(fast_learning_options());
        for (double p = -4.0; p <= 2.01; p += 0.5) {
            shard.observe(test_key(), Query{p, 1.5e9, 1.8}, truth(p, 1.5e9, 1.8));
        }
        ASSERT_TRUE(shard.save(b));
    }
    SurrogateStore merged(fast_learning_options());
    EXPECT_EQ(merged.merge_from({a, b}), 2u);
    EXPECT_EQ(merged.surfaces(), 1u);
    double value = 0.0;
    // Each shard alone would refuse the other's half as out-of-envelope; the
    // pooled surface serves both.
    EXPECT_EQ(merged.try_serve(test_key(), Query{-8.0, 1.5e9, 1.8}, &value), Decision::kHit);
    EXPECT_NEAR(value, truth(-8.0, 1.5e9, 1.8), 1e-6);
    EXPECT_EQ(merged.try_serve(test_key(), Query{1.0, 1.5e9, 1.8}, &value), Decision::kHit);
    EXPECT_NEAR(value, truth(1.0, 1.5e9, 1.8), 1e-6);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(SurrogateStore, MergeSkipsCorruptShardsButKeepsGoodOnes) {
    const std::string good = temp_path("merge_good");
    const std::string bad = temp_path("merge_bad");
    {
        SurrogateStore shard(fast_learning_options());
        feed_power_sweep(&shard, 12);
        ASSERT_TRUE(shard.save(good));
    }
    {
        std::FILE* f = std::fopen(bad.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a surrogate store image", f);
        std::fclose(f);
    }
    SurrogateStore merged(fast_learning_options());
    EXPECT_EQ(merged.merge_from({bad, good}), 1u);
    EXPECT_EQ(merged.counters().load_rejected, 1u);
    EXPECT_EQ(merged.surfaces(), 1u);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(SurrogateStore, DecisionNamesAreStable) {
    EXPECT_STREQ(to_string(Decision::kHit), "hit");
    EXPECT_STREQ(to_string(Decision::kMiss), "miss");
    EXPECT_STREQ(to_string(Decision::kOutOfEnvelope), "out_of_envelope");
    EXPECT_STREQ(to_string(Decision::kBoundTooLoose), "bound_too_loose");
}

}  // namespace
}  // namespace rfabm::rf::surrogate
