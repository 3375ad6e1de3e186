// Work-stealing thread pool: the test floor's pool of measurement stations.
//
// Scheduling discipline is work stealing with FIFO deques: one deque per
// worker, external submissions round-robin across deques, submissions from
// inside a task stay on the submitting worker's deque, and both the owner
// and thieves take the oldest task (the front).  Classic work stealing pops
// the owner's newest task instead, for cache locality along a task chain;
// here a task is a die's calibration or read, each building or reusing its
// own chip, so there is no locality to buy, and newest-first let a die's
// reads overtake an older die's calibration queued on the same deque (5 dies
// on 4 workers: the first calibration started after the last one's reads).
//
// Synchronization is deliberately coarse: every deque operation happens under
// one pool mutex.  A task here is a circuit solve costing milliseconds to
// seconds, so dispatch is nanoseconds of noise — and a single lock makes the
// pool auditable and trivially TSan-clean (no lock-free subtleties to get
// wrong).  The stealing *policy* still matters for ordering and locality;
// the lock granularity does not.
//
// Determinism contract: the pool never reorders *results* — callers give
// every task its own output slot and derive any randomness from per-task
// substream seeds (rf::Xoshiro256::split / exec::substream_seed), so values
// are independent of which worker runs what and when.  See docs/parallel.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfabm::exec {

class ThreadPool {
  public:
    struct Options {
        /// Worker count; 0 = std::thread::hardware_concurrency() (min 1).
        std::size_t workers = 0;
        /// Bound on queued-but-unstarted tasks; external submit() blocks
        /// above it (backpressure against unbounded campaign fan-out).
        std::size_t queue_capacity = 4096;
    };

    explicit ThreadPool(Options options);
    ThreadPool() : ThreadPool(Options{}) {}
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue a task.  External callers block while the queue is at
    /// capacity; worker threads never block on their own pool (that would
    /// deadlock a full pool).  Returns false only after shutdown began.
    bool submit(std::function<void()> task);

    /// Block until every submitted task has finished.
    void wait_idle();

    std::size_t worker_count() const { return workers_.size(); }

    /// True when called from one of this pool's worker threads.
    bool on_worker_thread() const;

    // --- counters (exact after wait_idle) -----------------------------------
    std::uint64_t tasks_executed() const { return executed_.load(std::memory_order_relaxed); }
    std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  private:
    void worker_loop(std::size_t index);
    /// Take the oldest task of the own deque, else steal the oldest of
    /// another's; pool_mutex_ must be held.  Returns false only when every
    /// deque is empty.
    bool take_task(std::size_t index, std::function<void()>& task);

    std::vector<std::deque<std::function<void()>>> queues_;  // under pool_mutex_
    std::vector<std::thread> workers_;

    std::mutex pool_mutex_;
    std::condition_variable work_available_;
    std::condition_variable idle_;
    std::condition_variable space_available_;
    std::size_t queued_ = 0;   ///< tasks sitting in deques (under pool_mutex_)
    std::size_t pending_ = 0;  ///< queued + running (under pool_mutex_)
    bool stop_ = false;
    std::size_t next_queue_ = 0;  ///< round-robin cursor (under pool_mutex_)

    std::size_t queue_capacity_ = 4096;
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> steals_{0};
};

/// SplitMix64-derived seed for a campaign substream: combines the campaign
/// seed with a task/stream id so each task gets an independent, scheduling-
/// order-free RNG stream (mirrors rf::Xoshiro256::split, usable where only
/// the seed is at hand).
std::uint64_t substream_seed(std::uint64_t campaign_seed, std::uint64_t stream_id);

}  // namespace rfabm::exec
