#include "ate/async_tester.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"

namespace cichar::ate {

namespace {

void telem_inflight(std::size_t in_flight) {
    if (!util::telemetry::metrics_enabled()) return;
    static auto& gauge = util::telemetry::Registry::instance().gauge(
        "cichar_ate_async_inflight");
    gauge.set(static_cast<double>(in_flight));
}

void telem_harvest(double wait_ns, bool reordered) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    // Time a ripe completion sat in the queue before the owner harvested
    // it — the submission-loop's reaction latency, in nanoseconds.
    static constexpr double kWaitBounds[] = {1e3, 1e4, 1e5, 1e6,
                                             1e7, 1e8, 1e9};
    static auto& wait = telem::Registry::instance().histogram(
        "cichar_ate_async_queue_wait_ns", kWaitBounds);
    static auto& reorders = telem::Registry::instance().counter(
        "cichar_ate_async_completions_reordered_total");
    wait.observe(std::max(0.0, wait_ns));
    if (reordered) reorders.add();
}

void telem_shared_credits(const SharedRingCredits& credits) {
    if (!util::telemetry::metrics_enabled()) return;
    static auto& in_use = util::telemetry::Registry::instance().gauge(
        "cichar_ate_shared_ring_credits_in_use");
    in_use.set(static_cast<double>(credits.capacity() - credits.available()));
}

}  // namespace

bool SharedRingCredits::try_acquire() noexcept {
    std::size_t current = available_.load(std::memory_order_relaxed);
    while (current > 0) {
        if (available_.compare_exchange_weak(current, current - 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
            telem_shared_credits(*this);
            return true;
        }
    }
    return false;
}

void SharedRingCredits::release(std::size_t n) noexcept {
    if (n == 0) return;
    available_.fetch_add(n, std::memory_order_release);
    telem_shared_credits(*this);
}

AsyncTester::AsyncTester(AsyncTesterOptions options, util::ThreadPool* pool)
    : options_(options), pool_(pool) {
    if (options_.queue_depth == 0) options_.queue_depth = 1;
}

AsyncTester::~AsyncTester() { quiesce(); }

void AsyncTester::quiesce() {
    std::size_t give_back = 0;
    {
        std::unique_lock lock(mutex_);
        wake_at_ = 0;
        done_cv_.wait(lock, [&] { return running_ == 0; });
        for (const auto& r : ring_) {
            if (r->credited) ++give_back;
        }
        if (std::exchange(cached_credit_, false)) ++give_back;
        floor_used_ = false;
        ring_.clear();
    }
    if (options_.shared_credits != nullptr) {
        options_.shared_credits->release(give_back);
    }
}

bool AsyncTester::submit(std::uint64_t id, Job job, CompletionFn on_complete) {
    auto req = std::make_shared<Request>();
    req->on_complete = std::move(on_complete);
    req->completion.id = id;
    req->completion.submitted_at = Clock::now();
    {
        std::lock_guard lock(mutex_);
        if (ring_.size() >= options_.queue_depth) return false;
        // Shared-budget admission: the floor is always ours; beyond it,
        // consume a credit cached by can_submit before competing for a
        // fresh one.
        if (options_.shared_credits != nullptr) {
            if (!floor_used_) {
                floor_used_ = true;
            } else if (std::exchange(cached_credit_, false)) {
                req->credited = true;
            } else if (options_.shared_credits->try_acquire()) {
                req->credited = true;
            } else {
                return false;
            }
        }
        req->seq = next_seq_++;
        ring_.push_back(req);
        ++running_;
        ++stats_.submitted;
        telem_inflight(ring_.size());
    }
    if (pool_ != nullptr) {
        pool_->submit([this, req, job = std::move(job)] { run(*req, job); });
    } else {
        run(*req, job);
    }
    return true;
}

void AsyncTester::run(Request& req, const Job& job) {
    AsyncCompletion& c = req.completion;
    try {
        c.tester_seconds = job();
    } catch (...) {
        c.error = std::current_exception();
    }
    // One deadline per job: the emulated latency of every probe the job
    // ledgered, counted from submission.
    c.deadline = c.submitted_at +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         options_.latency.inflight_seconds(c.tester_seconds)));
    const Clock::time_point done_at = Clock::now();
    // Notified under the lock: once it is released the owner may quiesce
    // and destroy this queue. The owner is woken only when it waits for
    // this many running jobs or fewer.
    std::lock_guard lock(mutex_);
    req.done = true;
    req.done_at = done_at;
    if (--running_ <= wake_at_) done_cv_.notify_all();
}

std::size_t AsyncTester::harvest(bool all) {
    std::vector<std::shared_ptr<Request>> ripe;
    std::size_t give_back = 0;
    {
        std::unique_lock lock(mutex_);
        // About to (possibly) park: stop hoarding credits can_submit
        // speculatively acquired — a sibling ring can use them now.
        if (std::exchange(cached_credit_, false)) ++give_back;
        for (;;) {
            const auto now = Clock::now();
            // The ring is scanned front-to-back, so among the ripe set
            // completions are delivered in submission order.
            for (auto it = ring_.begin(); it != ring_.end();) {
                if ((*it)->done && (*it)->completion.deadline <= now) {
                    if ((*it)->credited) {
                        ++give_back;
                    } else {
                        floor_used_ = false;
                    }
                    ripe.push_back(std::move(*it));
                    it = ring_.erase(it);
                } else {
                    ++it;
                }
            }
            if (ring_.empty() || (!all && !ripe.empty())) break;
            // A finished job ripens at its deadline; running jobs wake the
            // owner through done_cv_ — on every finish while it waits for
            // any completion, only on the last while it drains.
            auto earliest = Clock::time_point::max();
            for (const auto& r : ring_) {
                if (r->done) {
                    earliest = std::min(earliest, r->completion.deadline);
                }
            }
            wake_at_ = all || running_ == 0 ? 0 : running_ - 1;
            if (earliest != Clock::time_point::max()) {
                done_cv_.wait_until(lock, earliest);
            } else {
                done_cv_.wait(lock, [&] { return running_ <= wake_at_; });
            }
        }
        const auto harvested_at = Clock::now();
        stats_.completed += ripe.size();
        for (const auto& r : ripe) {
            const bool out_of_order =
                static_cast<std::int64_t>(r->seq) < max_harvested_seq_;
            if (out_of_order) {
                ++stats_.reordered;
            } else {
                max_harvested_seq_ = static_cast<std::int64_t>(r->seq);
            }
            const auto ready_at = std::max(r->done_at, r->completion.deadline);
            telem_harvest(static_cast<double>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  harvested_at - ready_at)
                                  .count()),
                          out_of_order);
        }
        telem_inflight(ring_.size());
    }
    if (give_back > 0 && options_.shared_credits != nullptr) {
        options_.shared_credits->release(give_back);
    }
    // Callbacks run unlocked. A throwing callback abandons the rest of
    // this harvest batch (the run is unwinding).
    for (const auto& r : ripe) r->on_complete(r->completion);
    return ripe.size();
}

std::size_t AsyncTester::wait() { return harvest(false); }

void AsyncTester::drain() { (void)harvest(true); }

std::size_t AsyncTester::in_flight() const {
    std::lock_guard lock(mutex_);
    return ring_.size();
}

bool AsyncTester::can_submit() const {
    std::lock_guard lock(mutex_);
    if (ring_.size() >= options_.queue_depth) return false;
    if (options_.shared_credits == nullptr) return true;
    if (!floor_used_) return true;
    if (cached_credit_) return true;
    // Speculatively acquire and cache one credit so the can_submit ->
    // submit window cannot be raced by a sibling ring (the optimizer
    // treats a failed submit after a positive can_submit as a logic
    // error). The cache is returned when the owner next waits.
    cached_credit_ = options_.shared_credits->try_acquire();
    return cached_credit_;
}

AsyncTester::Stats AsyncTester::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
}

}  // namespace cichar::ate
