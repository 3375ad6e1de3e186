// Task-graph scheduler: ordering, failure propagation, cycles, accounting.
#include "exec/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace rfabm::exec {
namespace {

ThreadPool::Options four_workers() {
    ThreadPool::Options opts;
    opts.workers = 4;
    return opts;
}

TEST(TaskGraph, RunsIndependentNodes) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i) {
        graph.add([&](TaskContext&) { count.fetch_add(1); });
    }
    const TaskGraphResult r = graph.run(pool);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ran, 16u);
    EXPECT_EQ(r.accounted(), graph.size());
    EXPECT_EQ(count.load(), 16);
}

TEST(TaskGraph, DiamondDependenciesRespectOrder) {
    //   a -> {b, c} -> d : b and c see a's effect, d sees both.
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::mutex m;
    std::vector<char> order;
    auto mark = [&](char c) {
        const std::lock_guard<std::mutex> lock(m);
        order.push_back(c);
    };
    const std::size_t a = graph.add([&](TaskContext&) { mark('a'); });
    const std::size_t b = graph.add([&](TaskContext&) { mark('b'); });
    const std::size_t c = graph.add([&](TaskContext&) { mark('c'); });
    const std::size_t d = graph.add([&](TaskContext&) { mark('d'); });
    graph.depends_on(b, a);
    graph.depends_on(c, a);
    graph.depends_on(d, b);
    graph.depends_on(d, c);

    const TaskGraphResult r = graph.run(pool);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), 'a');
    EXPECT_EQ(order.back(), 'd');
}

TEST(TaskGraph, FailureSkipsDependentsAndRethrows) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<bool> downstream_ran{false};
    const std::size_t bad =
        graph.add([](TaskContext&) { throw std::runtime_error("boom"); }, "bad");
    const std::size_t child = graph.add([&](TaskContext&) { downstream_ran.store(true); });
    graph.depends_on(child, bad);

    const TaskGraphResult r = graph.run(pool);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.failed, 1u);
    EXPECT_EQ(r.skipped, 1u);
    EXPECT_EQ(r.accounted(), graph.size());
    EXPECT_FALSE(downstream_ran.load());
    ASSERT_TRUE(r.first_error != nullptr);
    EXPECT_THROW(std::rethrow_exception(r.first_error), std::runtime_error);
}

TEST(TaskGraph, CancellationSkipsPendingNodesAndDrains) {
    ThreadPool::Options opts;
    opts.workers = 1;
    ThreadPool pool(opts);
    CancellationSource source;
    TaskGraph graph;
    std::atomic<int> ran{0};
    // The root cancels the campaign; its 8 dependents are released only
    // afterwards (a dependency edge, so the ordering does not rest on the
    // pool's queue order) and must all be skipped, with every node still
    // accounted for.
    const std::size_t root = graph.add([&](TaskContext&) {
        ran.fetch_add(1);
        source.cancel();
    });
    for (int i = 0; i < 8; ++i) {
        const std::size_t child = graph.add([&](TaskContext&) { ran.fetch_add(1); });
        graph.depends_on(child, root);
    }
    const TaskGraphResult r = graph.run(pool, source.token());
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.accounted(), graph.size());
    EXPECT_EQ(r.ran, 1u);
    EXPECT_EQ(r.skipped, 8u);
    EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGraph, DependencyCycleIsAccountedAsSkippedNotAHang) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<int> ran{0};
    const std::size_t a = graph.add([&](TaskContext&) { ran.fetch_add(1); });
    const std::size_t b = graph.add([&](TaskContext&) { ran.fetch_add(1); });
    const std::size_t free_node = graph.add([&](TaskContext&) { ran.fetch_add(1); });
    graph.depends_on(a, b);
    graph.depends_on(b, a);
    (void)free_node;

    const TaskGraphResult r = graph.run(pool);  // must return, not stall
    EXPECT_EQ(r.ran, 1u);
    EXPECT_EQ(r.skipped, 2u);
    EXPECT_EQ(r.accounted(), graph.size());
    EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGraph, EmptyGraphCompletesImmediately) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    const TaskGraphResult r = graph.run(pool);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.accounted(), 0u);
}

TEST(TaskGraph, DeferrableNodesParkWhilePredicateHoldsThenFlush) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<bool> defer{true};
    std::atomic<int> mandatory_done{0};
    std::vector<std::size_t> deferred_ids;
    // Two mandatory nodes; once both finish, the predicate clears — the
    // parked optional node must then run, not starve.
    const std::size_t m1 = graph.add([&](TaskContext&) {
        if (mandatory_done.fetch_add(1) + 1 == 2) defer.store(false);
    });
    const std::size_t m2 = graph.add([&](TaskContext&) {
        if (mandatory_done.fetch_add(1) + 1 == 2) defer.store(false);
    });
    std::atomic<bool> optional_ran{false};
    const std::size_t opt =
        graph.add([&](TaskContext&) { optional_ran.store(true); }, "optional", true);
    (void)m1;
    (void)m2;
    (void)opt;
    graph.set_defer_predicate([&] { return defer.load(); });

    const TaskGraphResult r = graph.run(pool);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ran, 3u);
    EXPECT_TRUE(optional_ran.load());
    EXPECT_GE(r.deferred, 1u);  // it really was parked at least once
}

TEST(TaskGraph, AllRootsDeferrableStillMakesProgress) {
    // Livelock guard: when everything ready is deferrable and the predicate
    // never clears, the flush path must run the parked work anyway.
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i) {
        graph.add([&](TaskContext&) { ran.fetch_add(1); }, "opt", true);
    }
    graph.set_defer_predicate([] { return true; });
    const TaskGraphResult r = graph.run(pool);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ran, 3u);
    EXPECT_EQ(ran.load(), 3);
}

TEST(TaskGraph, DeferrableWithoutPredicateRunsNormally) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<int> ran{0};
    graph.add([&](TaskContext&) { ran.fetch_add(1); }, "opt", true);
    const TaskGraphResult r = graph.run(pool);
    EXPECT_EQ(r.ran, 1u);
    EXPECT_EQ(r.deferred, 0u);
}

TEST(TaskGraph, ReRunResetsState) {
    ThreadPool pool(four_workers());
    TaskGraph graph;
    std::atomic<int> count{0};
    graph.add([&](TaskContext&) { count.fetch_add(1); });
    EXPECT_EQ(graph.run(pool).ran, 1u);
    EXPECT_EQ(graph.run(pool).ran, 1u);
    EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace rfabm::exec
