// Cancellation tokens, deadlines, and clean campaign drains.
#include "exec/cancellation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/measurement.hpp"
#include "exec/campaign.hpp"
#include "rf/curve.hpp"

namespace rfabm::exec {
namespace {

TEST(CancellationToken, DefaultTokenNeverFires) {
    CancellationToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.deadline_expired());
    EXPECT_FALSE(token.stop_requested());
    EXPECT_STREQ(token.stop_reason(), "");
}

TEST(CancellationToken, CancelPropagatesToEveryTokenCopy) {
    CancellationSource source;
    const CancellationToken a = source.token();
    const CancellationToken b = a;  // copies share state
    EXPECT_FALSE(a.stop_requested());
    source.cancel();
    EXPECT_TRUE(a.cancelled());
    EXPECT_TRUE(b.cancelled());
    EXPECT_STREQ(a.stop_reason(), "cancelled");
}

TEST(CancellationToken, DeadlineFiresAndClears) {
    CancellationSource source;
    const CancellationToken token = source.token();
    source.set_deadline_after(std::chrono::milliseconds(5));
    EXPECT_FALSE(token.cancelled());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(token.deadline_expired());
    EXPECT_TRUE(token.stop_requested());
    EXPECT_STREQ(token.stop_reason(), "deadline exceeded");
    source.clear_deadline();
    EXPECT_FALSE(token.stop_requested());
}

TEST(Campaign, CancelMidRunDrainsWithoutLeakingTasks) {
    // 6 dies x 3 measurements on a 2-worker pool; the first measurement
    // cancels.  Whatever was in flight finishes, the rest is skipped, and
    // every node is accounted for (ran + skipped + failed == total).
    ThreadPool::Options popts;
    popts.workers = 2;
    ThreadPool pool(popts);
    CancellationSource source;
    CampaignMetrics metrics;

    std::atomic<int> ran{0};
    std::vector<DieChain> dies(6);
    for (auto& die : dies) {
        die.calibrate = [&](TaskContext&) { ran.fetch_add(1); };
        for (int m = 0; m < 3; ++m) {
            die.measurements.push_back({[&](TaskContext&) {
                ran.fetch_add(1);
                source.cancel();
            }});
        }
    }
    CampaignOptions opts;
    opts.token = source.token();
    opts.metrics = &metrics;
    const TaskGraphResult r = run_campaign(dies, opts, &pool);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.accounted(), 6u * 4u);
    EXPECT_EQ(r.ran, static_cast<std::size_t>(ran.load()));
    EXPECT_GT(r.skipped, 0u);
    const auto s = metrics.snapshot();
    EXPECT_EQ(s.tasks_run + s.tasks_skipped, 6u * 4u);
}

TEST(Campaign, SerialPathHonoursPreCancelledToken) {
    CancellationSource source;
    source.cancel();
    std::atomic<int> ran{0};
    std::vector<DieChain> dies(3);
    for (auto& die : dies) {
        die.measurements.push_back({[&](TaskContext&) { ran.fetch_add(1); }});
    }
    CampaignOptions opts;
    opts.jobs = 1;
    opts.token = source.token();
    const TaskGraphResult r = run_campaign(dies, opts);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.ran, 0u);
    EXPECT_EQ(r.skipped, 3u);
    EXPECT_EQ(ran.load(), 0);
}

TEST(CheckedMeasurement, PreCancelledTokenShortCircuitsWithoutRetries) {
    // The hardened pipeline polls the token before every attempt: with a
    // cancelled token it must bail out immediately — no session churn, no
    // retry budget burned — and report kFailed / kCancelled.
    core::RfAbmChip chip{core::RfAbmChipConfig{}};
    CancellationSource source;
    source.cancel();
    core::MeasureOptions mopts;
    mopts.cancel = source.token();
    core::MeasurementController controller(chip, mopts);

    const rfabm::rf::MonotoneCurve curve({{-20.0, 0.01}, {0.0, 0.1}, {7.0, 0.3}});
    const auto t0 = std::chrono::steady_clock::now();
    const core::PowerMeasurement power = controller.measure_power_checked(curve);
    const core::FrequencyMeasurement freq = controller.measure_frequency_checked(curve);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    EXPECT_EQ(power.diag.status, core::MeasurementStatus::kFailed);
    EXPECT_EQ(power.diag.suspect, core::SuspectedFault::kCancelled);
    EXPECT_EQ(power.diag.retries, 0);
    EXPECT_EQ(freq.diag.status, core::MeasurementStatus::kFailed);
    EXPECT_EQ(freq.diag.suspect, core::SuspectedFault::kCancelled);
    // Bailing out must not cost a transient solve (which takes seconds).
    EXPECT_LT(elapsed, 1.0);
    EXPECT_EQ(core::to_string(core::SuspectedFault::kCancelled), std::string("cancelled"));
}

}  // namespace
}  // namespace rfabm::exec
