// Asynchronous queue-pair layer for replica measurements, in the style of
// an SPDK submission-ring/completion-queue: the caller submits whole
// measurement jobs (bounded ring, one callback each), keeps doing CPU work
// — decoding chromosomes, consulting caches — and harvests completions
// when they ripen. A job is one GA fitness slot: a complete trip search on
// its own replica tester (window search, full-range fallback, functional
// run, measurement-policy retries, fault forcing), returning the modeled
// tester-seconds it ledgered. Under emulated hardware latency
// (TesterOptions::realtime_fraction) a request is *ripe* at
//
//     max(job finished, submit time + LatencyModel::inflight_seconds(s))
//
// — the same wall clock as sleeping each probe's latency back to back,
// but elapsing concurrently with everything else. Completions may ripen
// out of submission order; the caller owns ordering (the optimizer
// reduces in submission order regardless of harvest order, which is what
// keeps results byte-identical at any depth).
//
// Threading contract: submit/wait/drain are called from ONE owner thread.
// Jobs run on the borrowed ThreadPool (or inline at submit when no pool is
// given); completion callbacks always run on the owner thread, inside
// wait()/drain(), and must not submit.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "ate/latency_model.hpp"
#include "ate/tester.hpp"
#include "util/thread_pool.hpp"

namespace cichar::ate {

/// A lot-wide pool of donatable inflight credits shared by several
/// AsyncTester rings (one ring per site = one ordering domain). Each ring
/// keeps a guaranteed floor of one request it may always have in flight
/// — progress never depends on another site — and borrows one credit per
/// request beyond the floor, so
/// idle sites donate their unused depth to busy ones. Purely a depth
/// throttle: it never changes which measurements run or how completions
/// are ordered, so results are byte-identical at any credit count.
///
/// Thread safety: try_acquire/release are lock-free and called from every
/// owner thread; the object must outlive all rings pointing at it.
class SharedRingCredits {
public:
    explicit SharedRingCredits(std::size_t credits)
        : capacity_(credits), available_(credits) {}

    [[nodiscard]] bool try_acquire() noexcept;
    void release(std::size_t n) noexcept;

    [[nodiscard]] std::size_t available() const noexcept {
        return available_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    std::size_t capacity_;
    std::atomic<std::size_t> available_;
};

struct AsyncTesterOptions {
    /// Submission-ring capacity: the maximum number of requests in flight.
    std::size_t queue_depth = 16;
    /// Deadline source for the emulated tester latency — build it from the
    /// *original* TesterOptions. The testers a job measures on should be
    /// constructed with `replica_options()` (emulation stripped) so jobs
    /// never sleep the latency a deadline already models.
    LatencyModel latency{};
    /// Optional shared inflight budget (borrowed, not owned; must outlive
    /// the ring). nullptr = this ring owns its full queue_depth.
    SharedRingCredits* shared_credits = nullptr;
};

/// One harvested completion, handed to the request's callback.
struct AsyncCompletion {
    using Clock = std::chrono::steady_clock;

    std::uint64_t id = 0;
    /// Modeled tester-seconds the job returned (0 when it threw).
    double tester_seconds = 0.0;
    Clock::time_point submitted_at{};
    /// submitted_at + latency.inflight_seconds(tester_seconds).
    Clock::time_point deadline{};
    /// Exception thrown by the job, if any; the callback decides whether
    /// to rethrow.
    std::exception_ptr error;
};

class AsyncTester {
public:
    /// One measurement job; returns the modeled tester-seconds it spent.
    using Job = std::function<double()>;
    using CompletionFn = std::function<void(const AsyncCompletion&)>;

    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        /// Completions harvested after a later-submitted request.
        std::uint64_t reordered = 0;
    };

    explicit AsyncTester(AsyncTesterOptions options,
                         util::ThreadPool* pool = nullptr);

    /// Waits for outstanding jobs (whatever they borrow must stay alive
    /// until then) and drops their callbacks un-invoked.
    ~AsyncTester();

    AsyncTester(const AsyncTester&) = delete;
    AsyncTester& operator=(const AsyncTester&) = delete;

    /// TesterOptions for replicas measured through this queue: identical
    /// timing model (ledger unchanged) with the inline latency emulation
    /// stripped — the queue's completion deadlines carry it instead.
    [[nodiscard]] static TesterOptions replica_options(TesterOptions options) {
        options.realtime_fraction = 0.0;
        return options;
    }

    /// Submits one job. Returns false (and drops the job) when the ring is
    /// full or no shared credit is available — harvest first.
    [[nodiscard]] bool submit(std::uint64_t id, Job job,
                              CompletionFn on_complete);

    /// Blocks until at least one completion is ripe, then harvests every
    /// ripe one (callbacks run on this thread, in submission order among
    /// the ripe set). Returns the harvest count, 0 when nothing is in
    /// flight.
    std::size_t wait();

    /// Harvests until the ring is empty, waking once when the last job
    /// finishes rather than once per job.
    void drain();

    /// Abandons the ring: waits for outstanding jobs (so no worker still
    /// touches borrowed state) and drops their callbacks un-invoked. For
    /// unwinding after a completion callback threw; a drained queue
    /// quiesces as a no-op.
    void quiesce();

    [[nodiscard]] std::size_t in_flight() const;
    [[nodiscard]] bool can_submit() const;
    [[nodiscard]] Stats stats() const;

private:
    using Clock = AsyncCompletion::Clock;

    struct Request {
        std::uint64_t seq = 0;
        CompletionFn on_complete;
        AsyncCompletion completion;
        bool done = false;
        Clock::time_point done_at{};
        /// True when this request borrowed a shared credit (as opposed to
        /// occupying a guaranteed floor slot).
        bool credited = false;
    };

    void run(Request& req, const Job& job);
    /// Waits for ripe completions — at least one, or with `all` every
    /// request in the ring — then runs their callbacks.
    std::size_t harvest(bool all);

    AsyncTesterOptions options_;
    util::ThreadPool* pool_;
    mutable std::mutex mutex_;
    std::condition_variable done_cv_;
    std::deque<std::shared_ptr<Request>> ring_;
    /// Submitted jobs not yet finished.
    std::size_t running_ = 0;
    /// A finishing job wakes the owner when running_ drops to this.
    std::size_t wake_at_ = 0;
    std::uint64_t next_seq_ = 0;
    std::int64_t max_harvested_seq_ = -1;
    Stats stats_;
    // --- shared-credit accounting (all guarded by mutex_; meaningful
    // only when options_.shared_credits != nullptr) -------------------
    /// True while an in-flight request occupies the guaranteed floor.
    bool floor_used_ = false;
    /// A credit acquired by can_submit() and not yet consumed by
    /// submit(). Mutable because can_submit() is const; owner-thread
    /// only. Released when the owner next waits.
    mutable bool cached_credit_ = false;
};

}  // namespace cichar::ate
