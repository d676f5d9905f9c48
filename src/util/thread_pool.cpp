#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/telemetry.hpp"

namespace cichar::util {

namespace {

struct PoolMetrics {
    telemetry::Counter& tasks;
    telemetry::Gauge& queue_depth;
    telemetry::Gauge& busy_seconds;

    static PoolMetrics& instance() {
        static PoolMetrics metrics{
            telemetry::Registry::instance().counter(
                "cichar_pool_tasks_total"),
            telemetry::Registry::instance().gauge("cichar_pool_queue_depth"),
            telemetry::Registry::instance().gauge(
                "cichar_pool_busy_seconds_total")};
        return metrics;
    }
};

}  // namespace

std::size_t ThreadPool::resolved_threads(std::size_t threads) noexcept {
    return threads != 0
               ? threads
               : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
    threads = resolved_threads(threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        if (telemetry::metrics_enabled()) {
            PoolMetrics& metrics = PoolMetrics::instance();
            metrics.tasks.add();
            metrics.queue_depth.set(static_cast<double>(queue_.size()));
        }
    }
    task_ready_.notify_one();
}

void ThreadPool::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    last_batch_failures_ = std::exchange(failures_, 0);
    if (first_error_) {
        std::exception_ptr error = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

std::size_t ThreadPool::last_batch_failures() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_batch_failures_;
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ with nothing left
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
            if (telemetry::metrics_enabled()) {
                PoolMetrics::instance().queue_depth.set(
                    static_cast<double>(queue_.size()));
            }
        }
        // Busy time is measured only when telemetry is on; the clock read
        // never feeds back into scheduling or results.
        const bool timed = telemetry::metrics_enabled();
        const auto begin = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        if (timed) {
            PoolMetrics::instance().busy_seconds.add(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count());
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (error) {
                ++failures_;
                if (!first_error_) first_error_ = std::move(error);
                // Drop this worker's reference while the mutex is held:
                // the last exception_ptr release frees the exception
                // object, and that free must be mutex-ordered against
                // wait() rethrowing and reading it on another thread.
                error = nullptr;
            }
            --active_;
            if (queue_.empty() && active_ == 0) all_done_.notify_all();
        }
    }
}

}  // namespace cichar::util
