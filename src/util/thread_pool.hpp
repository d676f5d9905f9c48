// Fixed-size worker pool for multi-site lot characterization. Each site
// owns its own DUT + tester + RNG stream, so sites are embarrassingly
// parallel; the pool only provides workers, a completion barrier, and
// first-error propagation. Determinism is the caller's job (pre-fork one
// Rng per task before submitting) — the pool guarantees nothing about
// execution order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cichar::util {

/// Shared progress counter for fan-out work (e.g. "sites completed").
/// tick() is safe from any worker thread.
class ProgressCounter {
public:
    explicit ProgressCounter(std::size_t total = 0) noexcept : total_(total) {}

    /// Re-arms the counter for a new run of `total` steps.
    void reset(std::size_t total) noexcept {
        done_.store(0, std::memory_order_relaxed);
        total_ = total;
    }

    /// Marks one step complete; returns the new completed count.
    std::size_t tick() noexcept {
        return done_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    [[nodiscard]] std::size_t done() const noexcept {
        return done_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }

    /// Completed fraction in [0, 1]; 1 when total is zero.
    [[nodiscard]] double fraction() const noexcept {
        if (total_ == 0) return 1.0;
        return static_cast<double>(done()) / static_cast<double>(total_);
    }

private:
    std::atomic<std::size_t> done_{0};
    std::size_t total_;
};

/// Fixed-size thread pool with a completion barrier.
///
/// Tasks run in unspecified order on unspecified workers. The first
/// exception a task throws is captured and rethrown from wait(); later
/// exceptions are dropped (the lot is already compromised). The pool is
/// reusable after wait().
class ThreadPool {
public:
    /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency
    /// (at least 1).
    explicit ThreadPool(std::size_t threads = 0);

    /// The number of workers a pool built with `threads` spawns.
    [[nodiscard]] static std::size_t resolved_threads(std::size_t threads) noexcept;

    /// Drains outstanding tasks (exceptions from them are discarded at
    /// this point) and joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t thread_count() const noexcept {
        return workers_.size();
    }

    /// Enqueues one task. Must not be called concurrently with wait().
    void submit(std::function<void()> task);

    /// Blocks until every submitted task has finished. If any task threw,
    /// rethrows the first captured exception (and clears it, so the pool
    /// can be reused). A wait() with no submitted tasks returns
    /// immediately.
    void wait();

    /// Number of tasks that threw in the batch most recently completed by
    /// wait() (including the one whose exception wait() rethrew). Query
    /// after wait() returns or after catching its exception; resets at the
    /// start of each new batch's wait().
    [[nodiscard]] std::size_t last_batch_failures() const noexcept;

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable all_done_;
    std::size_t active_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
    std::size_t failures_ = 0;
    std::size_t last_batch_failures_ = 0;
};

}  // namespace cichar::util
