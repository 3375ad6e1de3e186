// Work-stealing thread pool: execution, order, stealing, backpressure, nesting.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rfabm::exec {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool::Options opts;
    opts.workers = 4;
    ThreadPool pool(opts);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 200);
    EXPECT_EQ(pool.tasks_executed(), 200u);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
    ThreadPool pool;
    EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, OnWorkerThreadIsTrueOnlyInsideTasks) {
    ThreadPool::Options opts;
    opts.workers = 2;
    ThreadPool pool(opts);
    EXPECT_FALSE(pool.on_worker_thread());
    std::atomic<bool> inside{false};
    pool.submit([&] { inside.store(pool.on_worker_thread()); });
    pool.wait_idle();
    EXPECT_TRUE(inside.load());
}

TEST(ThreadPool, WorkersStealWhenOneQueueIsLoaded) {
    // External submissions round-robin across worker deques; a worker whose
    // own deque drains while another's is long must steal.  With tasks that
    // sleep, 4 workers on 64 tasks cannot finish without stealing unless the
    // round-robin happens to balance perfectly — which it does.  Force the
    // imbalance instead: one task fans out many nested submissions, which all
    // land on the submitting worker's own deque; the other workers have
    // nothing and must steal them.
    ThreadPool::Options opts;
    opts.workers = 4;
    ThreadPool pool(opts);
    std::atomic<int> count{0};
    pool.submit([&] {
        for (int i = 0; i < 64; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                count.fetch_add(1);
            });
        }
    });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 64);
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(pool.steals(), 0u);
    }
}

TEST(ThreadPool, OwnerRunsItsOldestTaskFirst) {
    // Two die chains queued on one worker behind a running task: each
    // calibration releases its reads from inside the pool.  The older
    // calibration must start first, and both before the reads the first one
    // released.  Newest-first ran cal_b and its reads before cal_a began.
    ThreadPool::Options opts;
    opts.workers = 1;
    ThreadPool pool(opts);
    std::latch blocker_running(1);
    std::latch release(1);
    std::mutex order_mutex;
    std::vector<std::string> order;
    const auto record = [&](const std::string& what) {
        std::lock_guard lock(order_mutex);
        order.push_back(what);
    };
    pool.submit([&] {
        blocker_running.count_down();
        release.wait();
    });
    blocker_running.wait();
    for (const char* die : {"a", "b"}) {
        pool.submit([&, die] {
            record(std::string("cal_") + die);
            for (const char* read : {"1", "2"}) {
                pool.submit([&, die, read] { record(std::string("read_") + die + read); });
            }
        });
    }
    release.count_down();
    pool.wait_idle();
    const std::vector<std::string> expected{"cal_a",   "cal_b",   "read_a1", "read_a2",
                                            "read_b1", "read_b2"};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, NestedSubmitFromWorkerDoesNotDeadlockOnFullQueue) {
    // queue_capacity bounds *external* submissions; workers are exempt so a
    // task can always schedule follow-up work on a saturated pool.
    ThreadPool::Options opts;
    opts.workers = 2;
    opts.queue_capacity = 2;
    ThreadPool pool(opts);
    std::atomic<int> count{0};
    pool.submit([&] {
        for (int i = 0; i < 32; ++i) pool.submit([&] { count.fetch_add(1); });
    });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ExternalSubmitBlocksAtCapacityThenProceeds) {
    ThreadPool::Options opts;
    opts.workers = 1;
    opts.queue_capacity = 1;
    ThreadPool pool(opts);

    // Park the single worker so the queue backs up.
    std::atomic<bool> release{false};
    pool.submit([&] {
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    std::atomic<int> accepted{0};
    std::thread producer([&] {
        for (int i = 0; i < 8; ++i) {
            pool.submit([] {});
            accepted.fetch_add(1);
        }
    });
    // The producer must stall well short of 8 while the worker is parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_LT(accepted.load(), 8);
    release.store(true);
    producer.join();
    pool.wait_idle();
    EXPECT_EQ(accepted.load(), 8);
}

TEST(ThreadPool, SubstreamSeedsAreStreamSpecificAndStable) {
    const std::uint64_t a0 = substream_seed(42, 0);
    const std::uint64_t a1 = substream_seed(42, 1);
    const std::uint64_t b0 = substream_seed(43, 0);
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, b0);
    EXPECT_EQ(a0, substream_seed(42, 0));  // pure function of (seed, id)
}

}  // namespace
}  // namespace rfabm::exec
