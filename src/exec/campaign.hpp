// Measurement-campaign scheduler: per-die chains on the task graph.
//
// A campaign is the paper's evaluation protocol at test-floor scale: for
// every die, DC-calibrate once, then fan out one measurement task per
// environmental corner / sweep segment.  run_campaign() builds the task
// graph (calibrate -> measurements), executes it on a thread pool — or, for
// jobs == 1, runs the identical chains inline in die-major order, byte-for-
// byte the pre-engine serial path — and aggregates metrics.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/metrics.hpp"
#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"

namespace rfabm::exec {

/// One unit of die work.  A deferrable task is optional-priority: while the
/// campaign's defer_optional predicate holds (typically "the failure breaker
/// has tripped"), the scheduler parks it and spends workers on mandatory
/// tasks first; parked tasks still run once mandatory work drains.
struct DieTask {
    TaskGraph::Body body;
    bool deferrable = false;
};

/// One die's task chain.  calibrate (optional) runs before every
/// measurement; measurements of one die are independent of each other.
struct DieChain {
    TaskGraph::Body calibrate;            ///< may be empty
    std::vector<DieTask> measurements;    ///< fan out after calibrate
};

struct CampaignOptions {
    /// Worker threads; 1 = serial in-order execution on the calling thread
    /// (no pool involved at all).
    std::size_t jobs = 1;
    CancellationToken token{};
    CampaignMetrics* metrics = nullptr;  ///< optional tally sink
    /// When set and returning true at a deferrable task's ready time, the
    /// task is parked until mandatory work drains (see DieTask).  Called on
    /// scheduler threads: must be O(1) and thread-safe.
    std::function<bool()> defer_optional;
};

/// Run every chain.  Returns the drained graph result (ran + skipped +
/// failed == total node count, cancellation included).  The first task
/// failure aborts the remainder; its exception is rethrown.  With @p pool
/// given, the chains run on that caller-owned pool and options.jobs is
/// ignored (the pool decides parallelism).
TaskGraphResult run_campaign(const std::vector<DieChain>& dies, const CampaignOptions& options,
                             ThreadPool* pool = nullptr);

}  // namespace rfabm::exec
