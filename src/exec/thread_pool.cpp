#include "exec/thread_pool.hpp"

#include <algorithm>

namespace rfabm::exec {

namespace {

/// Identity of the current thread within its pool (nullptr / npos when not a
/// worker).  Lets submit() route nested submissions to the caller's deque.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_index = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool::ThreadPool(Options options) {
    std::size_t n = options.workers;
    if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    queue_capacity_ = std::max<std::size_t>(1, options.queue_capacity);
    queues_.resize(n);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    wait_idle();
    {
        std::lock_guard lock(pool_mutex_);
        stop_ = true;
    }
    work_available_.notify_all();
    for (auto& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const {
    return tls_pool == this && tls_worker_index < queues_.size();
}

bool ThreadPool::submit(std::function<void()> task) {
    const bool from_worker = on_worker_thread();
    {
        std::unique_lock lock(pool_mutex_);
        if (stop_) return false;
        if (!from_worker) {
            space_available_.wait(lock, [&] { return stop_ || queued_ < queue_capacity_; });
            if (stop_) return false;
        }
        const std::size_t target =
            from_worker ? tls_worker_index : (next_queue_++ % queues_.size());
        queues_[target].push_back(std::move(task));
        ++queued_;
        ++pending_;
    }
    work_available_.notify_one();
    return true;
}

bool ThreadPool::take_task(std::size_t index, std::function<void()>& task) {
    auto& own = queues_[index];
    if (!own.empty()) {
        task = std::move(own.front());
        own.pop_front();
        return true;
    }
    const std::size_t n = queues_.size();
    for (std::size_t k = 1; k < n; ++k) {
        auto& victim = queues_[(index + k) % n];
        if (victim.empty()) continue;
        task = std::move(victim.front());
        victim.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void ThreadPool::worker_loop(std::size_t index) {
    tls_pool = this;
    tls_worker_index = index;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(pool_mutex_);
            work_available_.wait(lock, [&] { return stop_ || queued_ > 0; });
            if (queued_ == 0) return;  // stop_ and fully drained
            take_task(index, task);    // queued_ > 0 under the lock => succeeds
            --queued_;
        }
        space_available_.notify_one();
        task();
        executed_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard lock(pool_mutex_);
            --pending_;
            if (pending_ == 0) idle_.notify_all();
        }
    }
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(pool_mutex_);
    idle_.wait(lock, [&] { return pending_ == 0; });
}

std::uint64_t substream_seed(std::uint64_t campaign_seed, std::uint64_t stream_id) {
    // Two SplitMix64 finalization rounds over (seed, id): the first decouples
    // the id from the raw seed, the second breaks any residual linearity.
    std::uint64_t x = campaign_seed + 0x9E3779B97F4A7C15ULL * (stream_id + 1);
    for (int round = 0; round < 2; ++round) {
        x += 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        x = x ^ (x >> 31);
    }
    return x;
}

}  // namespace rfabm::exec
