#include "exec/campaign.hpp"

namespace rfabm::exec {

namespace {

/// Wrap a body so campaign metrics see every execution.
TaskGraph::Body counted(TaskGraph::Body body, CampaignMetrics* metrics) {
    if (!metrics) return body;
    return [body = std::move(body), metrics](TaskContext& ctx) {
        body(ctx);
        metrics->tasks_run.fetch_add(1, std::memory_order_relaxed);
    };
}

/// jobs == 1: the pre-engine serial path — die-major, calibrate first, then
/// the die's measurements in order, on the calling thread.  Deferral keeps
/// the same semantics as the pool path: a deferrable task whose predicate
/// holds at its turn is parked and run after the mandatory sweep, in the
/// order it was parked.
TaskGraphResult run_serial(const std::vector<DieChain>& dies, const CampaignOptions& options) {
    const CancellationToken& token = options.token;
    CampaignMetrics* metrics = options.metrics;
    TaskGraphResult result;
    std::size_t id = 0;
    bool abort = false;
    auto run_one = [&](const TaskGraph::Body& body, std::size_t node) {
        if (abort || token.stop_requested()) {
            result.cancelled = result.cancelled || token.stop_requested();
            ++result.skipped;
            if (metrics) metrics->tasks_skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        TaskContext ctx{node, token};
        try {
            body(ctx);
            ++result.ran;
            if (metrics) metrics->tasks_run.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            ++result.failed;
            abort = true;
            if (!result.first_error) result.first_error = std::current_exception();
        }
    };
    std::vector<std::pair<const TaskGraph::Body*, std::size_t>> parked;
    for (const DieChain& die : dies) {
        if (die.calibrate) run_one(die.calibrate, id++);
        for (const DieTask& m : die.measurements) {
            const std::size_t node = id++;
            if (m.deferrable && options.defer_optional && options.defer_optional()) {
                parked.emplace_back(&m.body, node);
                ++result.deferred;
                continue;
            }
            run_one(m.body, node);
        }
    }
    for (const auto& [body, node] : parked) run_one(*body, node);
    if (result.first_error) std::rethrow_exception(result.first_error);
    return result;
}

TaskGraphResult run_on_pool(ThreadPool& pool, const std::vector<DieChain>& dies,
                            const CampaignOptions& options) {
    CampaignMetrics* metrics = options.metrics;
    TaskGraph graph;
    if (options.defer_optional) graph.set_defer_predicate(options.defer_optional);
    for (const DieChain& die : dies) {
        std::size_t cal_node = static_cast<std::size_t>(-1);
        if (die.calibrate) cal_node = graph.add(counted(die.calibrate, metrics));
        for (const DieTask& m : die.measurements) {
            const std::size_t node = graph.add(counted(m.body, metrics), {}, m.deferrable);
            if (die.calibrate) graph.depends_on(node, cal_node);
        }
    }
    const std::uint64_t steals_before = pool.steals();
    TaskGraphResult result = graph.run(pool, options.token);
    if (metrics) {
        metrics->tasks_skipped.fetch_add(result.skipped, std::memory_order_relaxed);
        metrics->steals.fetch_add(pool.steals() - steals_before, std::memory_order_relaxed);
    }
    if (result.first_error) std::rethrow_exception(result.first_error);
    return result;
}

}  // namespace

TaskGraphResult run_campaign(const std::vector<DieChain>& dies, const CampaignOptions& options,
                             ThreadPool* pool) {
    if (pool != nullptr) return run_on_pool(*pool, dies, options);
    if (options.jobs == 1) return run_serial(dies, options);
    ThreadPool own({options.jobs, 4096});
    return run_on_pool(own, dies, options);
}

}  // namespace rfabm::exec
