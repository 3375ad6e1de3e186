// Unit tests of the benchmark's own helpers.  The last test runs the
// standard power_sweep set-up and two passes twice (about a minute).
//
//   cmake --build .bench_build/cellbench --target cellbench_tests
//   .bench_build/cellbench/cellbench_tests
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "host_clock.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace cellbench {
namespace {

/// A fake timeline: program work and slices advance `t` at a host speed
/// (1 = full speed, 2 = half speed) that the test switches.
struct FakeHost {
    double t = 0.0;
    double speed = 1.0;
    double nominal = 2e-3;
    HostClock clock{HostClock::Options{0.05, 2e-3}, [this] { return t; },
                    [this] { t += nominal * speed; }};
    void work(double full_speed_s) { t += full_speed_s * speed; }
};

TEST(HostClock, SliceTimeIsSubtractedFromTheEnclosingCall) {
    FakeHost host;
    Tracer tracer(host.clock, true);
    const int call = tracer.begin("core.read", 7);
    for (int i = 0; i < 10; ++i) {  // 100 ms of program time, polled
        host.work(0.01);
        host.clock.poll();
    }
    tracer.end(call);
    const Span& s = tracer.spans().at(0);
    ASSERT_GE(host.clock.slice_log().size(), 1u);
    EXPECT_NEAR(s.end_s - s.start_s, 0.1 + s.slice_s, 1e-12);
    EXPECT_NEAR(s.program_s(), 0.1, 1e-12);
    EXPECT_NEAR(s.slice_s, 2e-3 * static_cast<double>(host.clock.slice_log().size()), 1e-12);
    EXPECT_NEAR(host.clock.normalized(s.start_s, s.end_s), 0.1, 1e-12);  // full speed
}

TEST(HostClock, NormalizerRecoversFullSpeedCostOnATwoSpeedTimeline) {
    FakeHost host;
    const HostClock::Mark start = host.clock.mark();
    // 2 s of full-speed work: the first half at full speed, the second at
    // half speed, switching in the middle of a sampling interval.  A span
    // of 0.1 full-speed seconds sits inside each half.
    double fast[2] = {}, slow[2] = {};
    for (int i = 0; i < 2000; ++i) {
        if (i == 1003) host.speed = 2.0;
        if (i == 400) fast[0] = host.t;
        if (i == 500) fast[1] = host.t;
        if (i == 1500) slow[0] = host.t;
        if (i == 1600) slow[1] = host.t;
        host.work(1e-3);
        host.clock.poll();
    }
    const Interval iv = host.clock.since(start);
    EXPECT_NEAR(iv.program_s, 1.003 + 2.0 * 0.997, 1e-9);  // raw time follows the host
    EXPECT_NEAR(iv.normalized_s, 2.0, 0.02);                 // normalized does not
    // Spans are normalized after the fact, off the same slice log.
    EXPECT_NEAR(host.clock.normalized(fast[0], fast[1]), 0.1, 1e-3);
    EXPECT_NEAR(host.clock.normalized(slow[0], slow[1]), 0.1, 1e-3);
    EXPECT_NEAR(host.clock.normalized(start.wall, host.t), iv.normalized_s, 1e-12);
}

TEST(HostClock, RealSliceTakesMeasurableTime) {
    HostClock clock;
    const HostClock::Mark m = clock.mark();
    const Interval iv = clock.since(m);
    EXPECT_EQ(iv.slices, 1u);
    EXPECT_GT(iv.slice_s, 0.0);
}

TEST(Trace, SelfTimeExcludesNestedChildren) {
    FakeHost host;
    Tracer tracer(host.clock, true);
    const int outer = tracer.begin("exec.campaign", 1);
    host.work(0.004);
    const int child = tracer.begin("core.session", 1);
    host.work(0.010);
    const int grandchild = tracer.begin("core.read", 1);
    host.work(0.020);
    tracer.end(grandchild);
    tracer.end(child);
    host.work(0.006);
    const int second = tracer.begin("core.read", 1);
    host.work(0.030);
    tracer.end(second);
    tracer.end(outer);
    const std::vector<double> self = tracer.self_program_s();
    ASSERT_EQ(self.size(), 4u);
    EXPECT_NEAR(tracer.spans()[0].program_s(), 0.070, 1e-12);
    EXPECT_NEAR(self[0], 0.010, 1e-12);  // 70 - 30 (session) - 30 (second read)
    EXPECT_NEAR(self[1], 0.010, 1e-12);  // 30 - 20 (its read)
    EXPECT_NEAR(self[2], 0.020, 1e-12);
    EXPECT_EQ(tracer.spans()[2].parent, 1);
    EXPECT_EQ(tracer.spans()[3].parent, 0);
    EXPECT_NE(tracer.chrome_json().find("\"name\":\"core.session\""), std::string::npos);
}

TEST(Trace, DisabledTracerRecordsNothing) {
    FakeHost host;
    Tracer tracer(host.clock, false);
    tracer.end(tracer.begin("core.read", 1));
    tracer.record("host.slice", 0.0, 1.0);
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(Stats, TailIsTheHighestPercentileWithTenSamplesBeyond) {
    auto ramp = [](int n) {
        std::vector<double> v;
        for (int i = 1; i <= n; ++i) v.push_back(i);
        return v;
    };
    EXPECT_EQ(tail_percentile(ramp(100)).pct, 90.0);
    EXPECT_EQ(tail_percentile(ramp(100)).value, 90.0);
    EXPECT_EQ(tail_percentile(ramp(99)).pct, 75.0);  // p90 leaves only 9 beyond
    EXPECT_EQ(tail_percentile(ramp(1000)).pct, 99.0);
    EXPECT_EQ(tail_percentile(ramp(10000)).pct, 99.9);
    EXPECT_EQ(tail_percentile(ramp(40)).pct, 75.0);
    EXPECT_EQ(tail_percentile(ramp(25)).pct, 50.0);
    EXPECT_EQ(tail_percentile(ramp(5)).pct, 50.0);  // too few: the median
    EXPECT_EQ(tail_percentile(ramp(5)).samples, 5u);
    EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Digest, IsFnv1aOverTheBitPatternsInOrder) {
    EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ULL);
    // Reference FNV-1a over the 8 little-endian bytes of 1.0.
    const double one = 1.0;
    unsigned char bytes[8];
    std::memcpy(bytes, &one, 8);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(Digest().add(1.0).value(), h);
    EXPECT_NE(Digest().add(1.0).add(2.0).value(), Digest().add(2.0).add(1.0).value());
    EXPECT_NE(Digest().add(0.0).value(), Digest().add(-0.0).value());
    EXPECT_EQ(Digest().add(std::vector<double>{1.0, 2.0}).hex(),
              Digest().add(1.0).add(2.0).hex());
    EXPECT_EQ(Digest().hex(), "cbf29ce484222325");
}

TEST(ReadCost, SurvivesSessionResetsInsideCheckedReads) {
    // A plain read: every counter is a before/after delta.
    const ReadCost plain = read_cost({1000, 40000, 2e-6}, {1500, 43000, 2.5e-6}, 0);
    EXPECT_EQ(plain.newton, 500u);
    EXPECT_EQ(plain.steps, 3000u);
    EXPECT_NEAR(plain.sim_s, 0.5e-6, 1e-18);
    // A checked read re-opened the session: init() restarted steps and time,
    // so a naive delta would underflow to ~2^64.
    const EngineMark before{1000, 110000, 9e-6};
    const EngineMark after{4000, 7000, 0.6e-6};
    const ReadCost checked = read_cost(before, after, 1);
    EXPECT_EQ(checked.newton, 3000u);
    EXPECT_EQ(checked.steps, 7000u);
    EXPECT_NEAR(checked.sim_s, 0.6e-6, 1e-18);
    EXPECT_GT(after.steps - before.steps, std::numeric_limits<std::uint64_t>::max() / 2);
}

TEST(Workload, PassDigestIsTheSameWithTheSamplerAttachedAndDetached) {
    // The benchmark's own power_sweep set-up and two passes (the minimum),
    // with slices running inside every transient solve and without.
    RunOptions o;
    o.workload = Workload::kPowerSweep;
    o.seconds = 0.0;
    o.out_dir = ::testing::TempDir();
    const RunResult attached = run_workload(o);
    o.sampler = false;
    const RunResult detached = run_workload(o);
    ASSERT_TRUE(attached.correct);
    ASSERT_TRUE(detached.correct);
    EXPECT_EQ(attached.passes, 2u);
    EXPECT_EQ(attached.attempted, 28u);  // 14 reads a pass
    EXPECT_EQ(attached.failed, 0u);
    EXPECT_EQ(attached.digest, detached.digest);
    EXPECT_NE(attached.digest, Digest().hex());
}

}  // namespace
}  // namespace cellbench
