// AsyncTester queue-pair semantics: measurement jobs run through the
// queue give the same verdicts as blocking Tester::apply on an identical
// DUT, the bounded ring rejects over-submission, a job's completion
// deadline is its submit time plus the emulated latency of the
// tester-seconds it returns (so completions ripen out of submission
// order, tracked by the reorder stat), a throwing job reaches its
// callback as an error, and the LatencyModel sleeps through its
// injectable hook so the emulated path is unit-testable on a fake clock.
#include "ate/async_tester.hpp"

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ate/tester.hpp"
#include "device/memory_chip.hpp"
#include "util/thread_pool.hpp"

namespace cichar::ate {
namespace {

testgen::Test sized_test(const char* name, std::uint32_t writes) {
    testgen::TestPattern p(name);
    for (std::uint32_t i = 0; i < writes; ++i) {
        p.write(i % 32, static_cast<std::uint16_t>(i));
    }
    return testgen::make_test(std::move(p));
}

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

/// A one-probe measurement job: applies `setting` on `tester`, stores the
/// verdict (when asked), and returns the tester-seconds it ledgered.
AsyncTester::Job probe_job(Tester& tester, const testgen::Test& test,
                           double setting, bool* verdict = nullptr) {
    return [&tester, &test, setting, verdict] {
        const double before = tester.log().total().tester_seconds;
        const bool pass =
            tester.apply(test, Parameter::data_valid_time(), setting);
        if (verdict != nullptr) *verdict = pass;
        return tester.log().total().tester_seconds - before;
    };
}

const AsyncTester::CompletionFn ignore = [](const AsyncCompletion&) {};

TEST(LatencyModelTest, ModeledSecondsFollowSetupAndCycles) {
    const LatencyModel m(5e-4, 0.0, 0.0);
    // 100 cycles at a 10 ns period: setup + 100 * 10e-9.
    EXPECT_NEAR(m.modeled_seconds(100, 10.0), 5e-4 + 1e-6, 1e-15);
    // A cycle-seconds override displaces the test's own clock period.
    const LatencyModel o(0.0, 1e-6, 0.0);
    EXPECT_NEAR(o.modeled_seconds(100, 10.0), 100e-6, 1e-15);
}

TEST(LatencyModelTest, InflightSecondsScaleByRealtimeFraction) {
    const LatencyModel off(5e-4, 0.0, 0.0);
    EXPECT_FALSE(off.emulated());
    EXPECT_EQ(off.inflight_seconds(2.0), 0.0);

    const LatencyModel on(5e-4, 0.0, 0.25);
    EXPECT_TRUE(on.emulated());
    EXPECT_NEAR(on.inflight_seconds(2.0), 0.5, 1e-15);
}

TEST(LatencyModelTest, SleepHookReplacesRealSleep) {
    // A tester with latency emulation on, but with the sleep routed into
    // a fake clock: the measurement must "sleep" exactly the modeled
    // in-flight seconds without any real wall-clock delay.
    device::MemoryTestChip chip({}, noiseless());
    TesterOptions options;
    options.setup_seconds_per_measurement = 1e-3;
    options.cycle_seconds = 0.0;
    options.realtime_fraction = 0.5;
    Tester tester(chip, options);

    double fake_clock = 0.0;
    tester.latency_model().set_sleep(
        [&fake_clock](double seconds) { fake_clock += seconds; });

    const testgen::Test t = sized_test("t", 100);
    (void)tester.apply(t, Parameter::data_valid_time(), 20.0);

    const double modeled = tester.latency_model().modeled_seconds(
        t.pattern.size(), t.conditions.clock_period_ns);
    EXPECT_GT(fake_clock, 0.0);
    EXPECT_NEAR(fake_clock, 0.5 * modeled, 1e-12);
    // The ledger logs full modeled seconds regardless of the fraction.
    EXPECT_NEAR(tester.log().total().tester_seconds, modeled, 1e-12);
}

TEST(LatencyModelTest, BlockIgnoresNonPositiveSeconds) {
    LatencyModel m(0.0, 0.0, 1.0);
    int calls = 0;
    m.set_sleep([&calls](double) { ++calls; });
    m.block(0.0);
    m.block(-1.0);
    EXPECT_EQ(calls, 0);
    m.block(1e-9);
    EXPECT_EQ(calls, 1);
}

TEST(AsyncTesterTest, VerdictsMatchBlockingApply) {
    // The same ladder of settings on two identical noiseless chips: one
    // measured inline, one through the queue. Verdicts and ledger counts
    // must agree exactly.
    device::MemoryTestChip sync_chip({}, noiseless());
    device::MemoryTestChip async_chip({}, noiseless());
    Tester sync_tester(sync_chip);
    Tester async_tester_backend(async_chip);
    const testgen::Test t = sized_test("t", 100);
    const Parameter p = Parameter::data_valid_time();
    const double truth =
        sync_chip.true_parameter(t, device::ParameterKind::kDataValidTime);

    std::vector<double> settings;
    for (int i = -4; i <= 4; ++i) settings.push_back(truth + 0.7 * i);

    std::vector<bool> sync_verdicts;
    for (const double s : settings) {
        sync_verdicts.push_back(sync_tester.apply(t, p, s));
    }

    AsyncTesterOptions options;
    options.queue_depth = settings.size();
    AsyncTester queue(options);
    std::deque<bool> verdicts(settings.size());
    std::map<std::uint64_t, bool> async_verdicts;
    for (std::size_t i = 0; i < settings.size(); ++i) {
        ASSERT_TRUE(queue.submit(
            i, probe_job(async_tester_backend, t, settings[i], &verdicts[i]),
            [&](const AsyncCompletion& c) {
                if (c.error) std::rethrow_exception(c.error);
                async_verdicts[c.id] = verdicts[c.id];
            }));
    }
    queue.drain();

    ASSERT_EQ(async_verdicts.size(), settings.size());
    for (std::size_t i = 0; i < settings.size(); ++i) {
        EXPECT_EQ(async_verdicts[i], sync_verdicts[i]) << "setting " << i;
    }
    EXPECT_EQ(async_tester_backend.log().total().applications,
              sync_tester.log().total().applications);
    EXPECT_EQ(queue.stats().submitted, settings.size());
    EXPECT_EQ(queue.stats().completed, settings.size());
    EXPECT_EQ(queue.in_flight(), 0u);
}

TEST(AsyncTesterTest, FunctionalSubmission) {
    // A job is a whole measurement, functional runs included; the
    // completion carries the job's id and the tester-seconds it spent.
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 50);

    AsyncTester queue({});
    bool harvested = false;
    device::FunctionalResult functional;
    ASSERT_TRUE(queue.submit(
        7,
        [&] {
            functional = tester.run_functional(t);
            return tester.log().total().tester_seconds;
        },
        [&](const AsyncCompletion& c) {
            if (c.error) std::rethrow_exception(c.error);
            EXPECT_EQ(c.id, 7u);
            EXPECT_EQ(c.tester_seconds, tester.log().total().tester_seconds);
            harvested = true;
        }));
    queue.drain();
    EXPECT_TRUE(harvested);
    EXPECT_TRUE(functional.pass());
    EXPECT_EQ(tester.log().total().applications, 1u);
}

TEST(AsyncTesterTest, BoundedRingRejectsWhenFull) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    AsyncTesterOptions options;
    options.queue_depth = 2;
    AsyncTester queue(options);
    EXPECT_TRUE(queue.can_submit());
    ASSERT_TRUE(queue.submit(0, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(queue.submit(1, probe_job(tester, t, 20.0), ignore));
    EXPECT_FALSE(queue.can_submit());
    // The ring is full until a completion is harvested; a rejected job
    // never runs.
    EXPECT_FALSE(queue.submit(2, probe_job(tester, t, 20.0), ignore));
    EXPECT_EQ(queue.in_flight(), 2u);
    EXPECT_EQ(tester.log().total().applications, 2u);

    queue.drain();
    EXPECT_EQ(queue.in_flight(), 0u);
    EXPECT_TRUE(queue.can_submit());
    ASSERT_TRUE(queue.submit(2, probe_job(tester, t, 20.0), ignore));
    queue.drain();
    EXPECT_EQ(queue.stats().completed, 3u);
}

TEST(AsyncTesterTest, EmulatedLatencyCompletesOutOfOrder) {
    // A long test submitted before a short one: the short one's deadline
    // ripens first, so it harvests first and the long one counts as
    // reordered relative to it. Deadlines are a few milliseconds so the
    // test stays fast.
    device::MemoryTestChip chip({}, noiseless());
    // Replica testers never sleep inline; the queue's deadlines carry the
    // emulated latency.
    TesterOptions emulated;
    emulated.setup_seconds_per_measurement = 0.0;
    emulated.cycle_seconds = 2e-4;
    emulated.realtime_fraction = 1.0;
    Tester tester(chip, AsyncTester::replica_options(emulated));
    const testgen::Test long_test = sized_test("long", 100);   // 20 ms
    const testgen::Test short_test = sized_test("short", 10);  // 2 ms

    AsyncTesterOptions options;
    options.queue_depth = 2;
    options.latency = LatencyModel(0.0, 2e-4, 1.0);
    AsyncTester queue(options);

    std::vector<std::uint64_t> harvest_order;
    const auto record = [&harvest_order](const AsyncCompletion& c) {
        if (c.error) std::rethrow_exception(c.error);
        harvest_order.push_back(c.id);
    };
    ASSERT_TRUE(queue.submit(0, probe_job(tester, long_test, 20.0), record));
    ASSERT_TRUE(queue.submit(1, probe_job(tester, short_test, 20.0), record));
    queue.drain();

    ASSERT_EQ(harvest_order.size(), 2u);
    EXPECT_EQ(harvest_order[0], 1u);  // short ripened first
    EXPECT_EQ(harvest_order[1], 0u);
    EXPECT_EQ(queue.stats().reordered, 1u);
}

TEST(AsyncTesterTest, DeadlineIsSubmitTimePlusLatencyOfTheJobsSeconds) {
    // One deadline per job: the emulated latency of every tester-second
    // the job returns, counted from submission — not from when the job
    // finished, and not per probe.
    AsyncTesterOptions options;
    options.latency = LatencyModel(0.0, 0.0, 0.5);
    AsyncTester queue(options);

    AsyncCompletion seen;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(queue.submit(
        3, [] { return 0.04; },
        [&seen](const AsyncCompletion& c) { seen = c; }));
    queue.drain();
    const auto harvested = std::chrono::steady_clock::now();

    EXPECT_EQ(seen.id, 3u);
    EXPECT_EQ(seen.tester_seconds, 0.04);
    EXPECT_GE(seen.submitted_at, start);
    const auto expected = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(std::chrono::duration<double>(
        options.latency.inflight_seconds(0.04)));
    EXPECT_EQ(seen.deadline - seen.submitted_at, expected);
    // The completion never ripens before its deadline.
    EXPECT_GE(harvested, seen.deadline);
}

TEST(AsyncTesterTest, ThrowingJobReachesItsCallbackAsError) {
    util::ThreadPool pool(2);
    AsyncTesterOptions options;
    options.latency = LatencyModel(0.0, 0.0, 1.0);
    AsyncTester queue(options, &pool);

    std::map<std::uint64_t, bool> failed;
    const auto record = [&failed](const AsyncCompletion& c) {
        failed[c.id] = static_cast<bool>(c.error);
        if (c.error) {
            EXPECT_THROW(std::rethrow_exception(c.error), std::runtime_error);
            EXPECT_EQ(c.tester_seconds, 0.0);
        }
    };
    ASSERT_TRUE(queue.submit(
        0, []() -> double { throw std::runtime_error("site died"); },
        record));
    ASSERT_TRUE(queue.submit(1, [] { return 1e-3; }, record));
    queue.drain();

    ASSERT_EQ(failed.size(), 2u);
    EXPECT_TRUE(failed[0]);
    EXPECT_FALSE(failed[1]);
}

TEST(AsyncTesterTest, PoolBackedSubmissionsHarvestOnOwnerThread) {
    // One replica per job (a Tester is single-threaded), as the hunt
    // does; callbacks run on the submitting thread.
    constexpr std::size_t kJobs = 8;
    std::vector<std::unique_ptr<device::MemoryTestChip>> chips;
    std::vector<std::unique_ptr<Tester>> testers;
    for (std::size_t i = 0; i < kJobs; ++i) {
        chips.push_back(
            std::make_unique<device::MemoryTestChip>(device::DieParameters{},
                                                     noiseless()));
        testers.push_back(std::make_unique<Tester>(*chips.back()));
    }
    const testgen::Test t = sized_test("t", 50);

    util::ThreadPool pool(4);
    AsyncTesterOptions options;
    options.queue_depth = kJobs;
    AsyncTester queue(options, &pool);
    const std::thread::id owner = std::this_thread::get_id();
    std::size_t harvested = 0;
    for (std::uint64_t i = 0; i < kJobs; ++i) {
        ASSERT_TRUE(queue.submit(i, probe_job(*testers[i], t, 20.0),
                                 [&](const AsyncCompletion& c) {
                                     if (c.error) std::rethrow_exception(c.error);
                                     EXPECT_EQ(std::this_thread::get_id(),
                                               owner);
                                     ++harvested;
                                 }));
    }
    while (queue.in_flight() > 0) (void)queue.wait();
    EXPECT_EQ(harvested, kJobs);
    for (const auto& tester : testers) {
        EXPECT_EQ(tester->log().total().applications, 1u);
    }
}

TEST(AsyncTesterTest, QuiesceDropsPendingCallbacks) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    AsyncTester queue({});
    bool invoked = false;
    ASSERT_TRUE(queue.submit(0, probe_job(tester, t, 20.0),
                             [&invoked](const AsyncCompletion&) {
                                 invoked = true;
                             }));
    queue.quiesce();
    EXPECT_FALSE(invoked);
    EXPECT_EQ(queue.in_flight(), 0u);
    // The measurement itself still happened (quiesce only drops callbacks
    // after waiting out the job).
    EXPECT_EQ(tester.log().total().applications, 1u);
}

TEST(AsyncTesterTest, QuiesceAfterThrowingCallbackWaitsOutRunningJobs) {
    // A callback that throws unwinds the owner with jobs still running on
    // the pool; quiesce must wait every one of them out before the state
    // they borrow dies, and leave the ring empty.
    util::ThreadPool pool(2);
    AsyncTesterOptions options;
    options.queue_depth = 6;
    AsyncTester queue(options, &pool);
    std::vector<int> ran(6, 0);
    for (std::uint64_t i = 0; i < 6; ++i) {
        ASSERT_TRUE(queue.submit(
            i,
            [&ran, i] {
                ran[i] = 1;
                return 0.0;
            },
            [](const AsyncCompletion&) {
                throw std::runtime_error("callback failed");
            }));
    }
    EXPECT_THROW(queue.drain(), std::runtime_error);
    queue.quiesce();
    EXPECT_EQ(queue.in_flight(), 0u);
    for (const int r : ran) EXPECT_EQ(r, 1);
}

TEST(AsyncTesterTest, ReplicaOptionsStripOnlyTheEmulation) {
    TesterOptions options;
    options.setup_seconds_per_measurement = 2e-3;
    options.cycle_seconds = 1e-6;
    options.realtime_fraction = 0.5;
    const TesterOptions replica = AsyncTester::replica_options(options);
    EXPECT_EQ(replica.setup_seconds_per_measurement, 2e-3);
    EXPECT_EQ(replica.cycle_seconds, 1e-6);
    EXPECT_EQ(replica.realtime_fraction, 0.0);
}

// ---------------------------------------------------------------------
// SharedRingCredits: a lot-wide in-flight budget donated between rings.
// Every ring keeps a guaranteed floor of one submission; depth beyond the
// floor borrows from the shared pool and is returned when its request is
// harvested, or when the ring idles or quiesces.

TEST(SharedRingCredits, FloorGuaranteesOneSubmissionPerRing) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    SharedRingCredits credits(0);  // nothing donatable: floors only
    AsyncTesterOptions options;
    options.queue_depth = 4;
    options.shared_credits = &credits;
    AsyncTester a(options);
    AsyncTester b(options);

    ASSERT_TRUE(a.submit(0, probe_job(tester, t, 20.0), ignore));  // a's floor
    EXPECT_FALSE(a.can_submit());
    EXPECT_FALSE(a.submit(1, probe_job(tester, t, 20.0), ignore));
    // An exhausted pool never starves a sibling ring of its floor.
    ASSERT_TRUE(b.submit(0, probe_job(tester, t, 20.0), ignore));
    EXPECT_FALSE(b.can_submit());

    a.drain();
    EXPECT_TRUE(a.can_submit());  // the floor came back with the harvest
    b.drain();
}

TEST(SharedRingCredits, IdleRingDonatesDepthToBusySibling) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    SharedRingCredits credits(2);
    AsyncTesterOptions options;
    options.queue_depth = 4;
    options.shared_credits = &credits;
    AsyncTester busy(options);
    AsyncTester idle(options);

    // The busy ring takes its floor plus the whole donatable budget.
    ASSERT_TRUE(busy.submit(0, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(busy.submit(1, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(busy.submit(2, probe_job(tester, t, 20.0), ignore));
    EXPECT_EQ(credits.available(), 0u);
    EXPECT_FALSE(busy.submit(3, probe_job(tester, t, 20.0), ignore));

    // The idle ring still holds its floor, but nothing beyond it.
    ASSERT_TRUE(idle.submit(0, probe_job(tester, t, 20.0), ignore));
    EXPECT_FALSE(idle.can_submit());

    // Draining the busy ring returns the borrowed depth to the pool...
    busy.drain();
    EXPECT_EQ(credits.available(), 2u);
    // ...where the other ring can now borrow it.
    ASSERT_TRUE(idle.submit(1, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(idle.submit(2, probe_job(tester, t, 20.0), ignore));
    idle.drain();
    EXPECT_EQ(credits.available(), 2u);
}

TEST(SharedRingCredits, CanSubmitReservesACreditForTheAskingRing) {
    // can_submit() == true is a promise the next submit keeps, even when
    // a sibling ring asks in between: the credit is speculatively cached
    // by the ring that asked.
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    SharedRingCredits credits(1);
    AsyncTesterOptions options;
    options.queue_depth = 4;
    options.shared_credits = &credits;
    AsyncTester a(options);
    AsyncTester b(options);

    ASSERT_TRUE(a.submit(0, probe_job(tester, t, 20.0), ignore));  // a's floor
    ASSERT_TRUE(b.submit(0, probe_job(tester, t, 20.0), ignore));  // b's floor
    EXPECT_TRUE(a.can_submit());   // caches the pool's only credit
    EXPECT_FALSE(b.can_submit());  // the sibling cannot steal it
    ASSERT_TRUE(a.submit(1, probe_job(tester, t, 20.0), ignore));  // promise kept

    a.drain();
    b.drain();
    EXPECT_EQ(credits.available(), 1u);
}

TEST(SharedRingCredits, QuiesceReturnsEveryBorrowedCredit) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    SharedRingCredits credits(3);
    AsyncTesterOptions options;
    options.queue_depth = 4;
    options.shared_credits = &credits;
    AsyncTester queue(options);

    ASSERT_TRUE(queue.submit(0, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(queue.submit(1, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(queue.submit(2, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(queue.submit(3, probe_job(tester, t, 20.0), ignore));
    EXPECT_EQ(credits.available(), 0u);

    queue.quiesce();  // drops pending callbacks, must not drop credits
    EXPECT_EQ(credits.available(), 3u);
}

TEST(SharedRingCredits, UnsharedRingIsUnaffectedBySiblingPools) {
    // A ring with no shared_credits keeps the classic fixed-depth
    // behavior bit for bit.
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const testgen::Test t = sized_test("t", 20);

    AsyncTesterOptions options;
    options.queue_depth = 2;
    AsyncTester queue(options);
    ASSERT_TRUE(queue.submit(0, probe_job(tester, t, 20.0), ignore));
    ASSERT_TRUE(queue.submit(1, probe_job(tester, t, 20.0), ignore));
    EXPECT_FALSE(queue.can_submit());  // bounded by the ring alone
    queue.drain();
    EXPECT_EQ(queue.stats().completed, 2u);
}

}  // namespace
}  // namespace cichar::ate
