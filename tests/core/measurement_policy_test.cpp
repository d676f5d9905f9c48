#include "core/measurement_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ate/fault_injector.hpp"
#include "ate/search.hpp"
#include "ate/tester.hpp"
#include "core/multi_trip.hpp"
#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

MeasurementPolicyOptions enabled_options() {
    MeasurementPolicyOptions o;
    o.enabled = true;
    return o;
}

/// Noiseless synthetic oracle: pass strictly on the pass side of `trip`.
ate::Oracle truth_oracle(const ate::Parameter& parameter, double trip) {
    const double toward_fail = parameter.toward_fail();
    return [toward_fail, trip](double setting) {
        return (setting - trip) * toward_fail <= 0.0;
    };
}

/// A search result consistent with `truth_oracle` at `trip`.
ate::SearchResult consistent_result(const ate::Parameter& parameter,
                                    double trip) {
    ate::SearchResult result;
    result.trip_point = trip;
    result.found = true;
    const double toward_fail = parameter.toward_fail();
    result.probe(trip - toward_fail, true);
    result.probe(trip + toward_fail, false);
    return result;
}

TEST(MeasurementPolicyTest, DisabledPolicyRunsAttemptOnceUntouched) {
    MeasurementPolicy policy;  // default: disabled
    EXPECT_FALSE(policy.enabled());
    const ate::Parameter param = ate::Parameter::data_valid_time();

    std::size_t attempts = 0;
    ate::SearchResult bogus;  // implausible: trip far outside the range
    bogus.trip_point = 1e9;
    bogus.found = true;
    const ate::SearchResult out = policy.screen(
        [&] {
            ++attempts;
            return bogus;
        },
        truth_oracle(param, 30.0), param);
    EXPECT_EQ(attempts, 1u);  // no screening, no re-search
    EXPECT_EQ(out.trip_point, 1e9);
    EXPECT_FALSE(policy.counters().any());
    EXPECT_EQ(policy.counters().describe(), "clean");
}

TEST(MeasurementPolicyTest, GuardAbsorbsTransientTimeouts) {
    MeasurementPolicy policy(enabled_options());
    std::size_t calls = 0;
    const ate::Oracle guarded = policy.guard([&](double) -> bool {
        if (++calls < 3) throw ate::MeasurementTimeout();
        return true;
    });
    EXPECT_TRUE(guarded(1.0));
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(policy.counters().timeouts_absorbed, 2u);
    EXPECT_EQ(policy.counters().retried_measurements, 2u);
    EXPECT_EQ(policy.counters().abandoned_measurements, 0u);
    EXPECT_GT(policy.counters().backoff_seconds, 0.0);
}

TEST(MeasurementPolicyTest, GuardBackoffGrowsExponentially) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.backoff_jitter = 0.0;  // deterministic schedule for the assert
    opts.timeout_retries = 3;
    MeasurementPolicy policy(opts);
    std::size_t calls = 0;
    const ate::Oracle guarded = policy.guard([&](double) -> bool {
        if (++calls < 4) throw ate::MeasurementTimeout();
        return true;
    });
    EXPECT_TRUE(guarded(1.0));
    // 0.25 * (2^0 + 2^1 + 2^2) = 1.75 accounted seconds.
    EXPECT_NEAR(policy.counters().backoff_seconds, 1.75, 1e-12);
}

TEST(MeasurementPolicyTest, GuardRethrowsWhenRetryBudgetExhausted) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.timeout_retries = 2;
    MeasurementPolicy policy(opts);
    const ate::Oracle guarded = policy.guard(
        [](double) -> bool { throw ate::MeasurementTimeout(); });
    EXPECT_THROW((void)guarded(1.0), ate::MeasurementTimeout);
    EXPECT_EQ(policy.counters().abandoned_measurements, 1u);
    EXPECT_EQ(policy.counters().retried_measurements, 2u);
}

TEST(MeasurementPolicyTest, GuardNeverSwallowsSiteDeath) {
    MeasurementPolicy policy(enabled_options());
    const ate::Oracle guarded = policy.guard(
        [](double) -> bool { throw ate::SiteDeadError(); });
    EXPECT_THROW((void)guarded(1.0), ate::SiteDeadError);
    EXPECT_EQ(policy.counters().retried_measurements, 0u);
}

TEST(MeasurementPolicyTest, ScreenAcceptsCleanResultWithoutIntervention) {
    MeasurementPolicy policy(enabled_options());
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double trip = 30.0;
    const ate::SearchResult out = policy.screen(
        [&] { return consistent_result(param, trip); },
        truth_oracle(param, trip), param);
    ASSERT_TRUE(out.found);
    EXPECT_EQ(out.trip_point, trip);
    // A clean first attempt counts as neither recovery nor intervention.
    EXPECT_EQ(policy.counters().recovered_trips, 0u);
    EXPECT_FALSE(policy.counters().any());
}

TEST(MeasurementPolicyTest, ScreenRejectsTripOutsideCharacterizationRange) {
    MeasurementPolicy policy(enabled_options());
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double trip = 30.0;
    std::size_t attempts = 0;
    const ate::SearchResult out = policy.screen(
        [&] {
            // First search is steered way off by a fault; later ones are fine.
            ++attempts;
            if (attempts == 1) {
                ate::SearchResult bad = consistent_result(param, trip);
                bad.trip_point = param.search_end +
                                 10.0 * param.characterization_range();
                bad.trace.clear();
                return bad;
            }
            return consistent_result(param, trip);
        },
        truth_oracle(param, trip), param);
    ASSERT_TRUE(out.found);
    EXPECT_EQ(out.trip_point, trip);
    EXPECT_EQ(policy.counters().implausible_trips, 1u);
    EXPECT_EQ(policy.counters().researches, 1u);
    EXPECT_EQ(policy.counters().recovered_trips, 1u);
}

TEST(MeasurementPolicyTest, ScreenRejectsInternallyInconsistentTrace) {
    MeasurementPolicy policy(enabled_options());
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double trip = 30.0;
    const double margin =
        param.resolution * enabled_options().confirm_margin_resolutions;
    std::size_t attempts = 0;
    const ate::SearchResult out = policy.screen(
        [&] {
            ++attempts;
            ate::SearchResult r = consistent_result(param, trip);
            if (attempts == 1) {
                // A "fail" reading deep on the pass side: the search was
                // steered by a transient and its window is untrustworthy.
                r.probe(trip - param.toward_fail() * 5.0 * margin, false);
            }
            return r;
        },
        truth_oracle(param, trip), param);
    ASSERT_TRUE(out.found);
    EXPECT_EQ(policy.counters().implausible_trips, 1u);
    EXPECT_EQ(policy.counters().recovered_trips, 1u);
}

TEST(MeasurementPolicyTest, ScreenRejectsTripTheOracleDisowns) {
    MeasurementPolicy policy(enabled_options());
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double true_trip = 30.0;
    const double bogus_trip = 36.0;  // plausible range, wrong place
    std::size_t attempts = 0;
    const ate::SearchResult out = policy.screen(
        [&] {
            ++attempts;
            if (attempts == 1) {
                ate::SearchResult bad;
                bad.trip_point = bogus_trip;
                bad.found = true;  // empty trace: nothing to contradict
                return bad;
            }
            return consistent_result(param, true_trip);
        },
        truth_oracle(param, true_trip), param);
    ASSERT_TRUE(out.found);
    EXPECT_EQ(out.trip_point, true_trip);
    EXPECT_EQ(policy.counters().confirm_rejections, 1u);
    EXPECT_EQ(policy.counters().recovered_trips, 1u);
}

TEST(MeasurementPolicyTest, ExhaustedAttemptsReportNotFound) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 3;
    MeasurementPolicy policy(opts);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    std::size_t attempts = 0;
    const ate::SearchResult out = policy.screen(
        [&] {
            ++attempts;
            ate::SearchResult bad;
            bad.found = false;
            return bad;
        },
        truth_oracle(param, 30.0), param);
    EXPECT_FALSE(out.found);
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(policy.counters().unrecovered_trips, 1u);
    EXPECT_EQ(policy.counters().researches, 2u);
}

TEST(MeasurementPolicyTest, QuarantineAfterConsecutiveUnrecoverableTests) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 1;
    opts.quarantine_after = 2;
    MeasurementPolicy policy(opts);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const auto hopeless = [] {
        ate::SearchResult bad;
        bad.found = false;
        return bad;
    };
    const ate::Oracle oracle = truth_oracle(param, 30.0);

    EXPECT_FALSE(policy.screen(hopeless, oracle, param).found);
    EXPECT_THROW((void)policy.screen(hopeless, oracle, param),
                 SiteQuarantinedError);
}

TEST(MeasurementPolicyTest, SuccessResetsQuarantineCount) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.search_attempts = 1;
    opts.quarantine_after = 2;
    MeasurementPolicy policy(opts);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const double trip = 30.0;
    const auto hopeless = [] {
        ate::SearchResult bad;
        bad.found = false;
        return bad;
    };
    const ate::Oracle oracle = truth_oracle(param, trip);

    EXPECT_FALSE(policy.screen(hopeless, oracle, param).found);
    EXPECT_TRUE(policy
                    .screen([&] { return consistent_result(param, trip); },
                            oracle, param)
                    .found);
    // The failure streak restarted: one more failure does not quarantine.
    EXPECT_FALSE(policy.screen(hopeless, oracle, param).found);
    EXPECT_THROW((void)policy.screen(hopeless, oracle, param),
                 SiteQuarantinedError);
}

TEST(MeasurementPolicyTest, SaveLoadRoundTripsDynamicState) {
    MeasurementPolicyOptions opts = enabled_options();
    opts.timeout_retries = 5;
    MeasurementPolicy policy(opts);
    std::size_t calls = 0;
    const ate::Oracle guarded = policy.guard([&](double) -> bool {
        if (++calls % 2 == 0) throw ate::MeasurementTimeout();
        return true;
    });
    (void)guarded(1.0);
    (void)guarded(2.0);
    (void)guarded(3.0);

    std::string blob;
    policy.save(blob);

    MeasurementPolicy restored(opts);
    util::ByteReader reader(blob);
    restored.load(reader);
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(restored.counters(), policy.counters());

    // The jitter stream continues identically from the snapshot point.
    std::size_t calls_a = 0;
    std::size_t calls_b = 0;
    const ate::Oracle ga = policy.guard([&](double) -> bool {
        if (++calls_a < 2) throw ate::MeasurementTimeout();
        return true;
    });
    const ate::Oracle gb = restored.guard([&](double) -> bool {
        if (++calls_b < 2) throw ate::MeasurementTimeout();
        return true;
    });
    (void)ga(1.0);
    (void)gb(1.0);
    EXPECT_EQ(restored.counters().backoff_seconds,
              policy.counters().backoff_seconds);
}

TEST(MeasurementPolicyTest, FaultCountersMergeAndDescribe) {
    FaultCounters a;
    a.timeouts_absorbed = 2;
    a.backoff_seconds = 1.5;
    FaultCounters b;
    b.timeouts_absorbed = 1;
    b.researches = 3;
    b.backoff_seconds = 0.5;
    a.merge(b);
    EXPECT_EQ(a.timeouts_absorbed, 3u);
    EXPECT_EQ(a.researches, 3u);
    EXPECT_NEAR(a.backoff_seconds, 2.0, 1e-12);
    EXPECT_EQ(a.describe(), "timeouts=3 researches=3");
    EXPECT_EQ(FaultCounters{}.describe(), "clean");
}

// End-to-end recovery: a TripSession measured through a transiently faulty
// tester with the policy on lands on the same trip points (within a small
// tolerance) as a fault-free session.
TEST(MeasurementPolicyTest, FaultedSessionRecoversFaultFreeTripPoints) {
    const ate::Parameter param = ate::Parameter::data_valid_time();
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;

    testgen::RandomTestGenerator gen;
    util::Rng test_rng(77);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < 12; ++i) {
        tests.push_back(gen.random_test(test_rng, std::string("t").append(std::to_string(i))));
    }

    // Clean reference run.
    device::MemoryTestChip clean_chip({}, chip_opts);
    ate::Tester clean_tester(clean_chip);
    TripSession clean_session(clean_tester, param, MultiTripOptions{});
    std::vector<double> clean_trips;
    for (const testgen::Test& test : tests) {
        const TripPointRecord r = clean_session.measure(test);
        ASSERT_TRUE(r.found) << test.name;
        clean_trips.push_back(r.trip_point);
    }

    // Faulted run: 5% transients + occasional timeouts, policy on.
    device::MemoryTestChip chip({}, chip_opts);
    ate::Tester tester(chip);
    ate::FaultProfile profile;
    profile.transient_rate = 0.05;
    profile.transient_span_fraction = 0.3;  // gross errors, easy to screen
    profile.timeout_rate = 0.01;
    profile.seed = 99;
    ate::FaultInjector injector(profile);
    tester.attach_fault_injector(&injector);

    MultiTripOptions opts;
    opts.policy = enabled_options();
    TripSession session(tester, param, opts);
    std::size_t recovered = 0;
    for (std::size_t i = 0; i < tests.size(); ++i) {
        const TripPointRecord r = session.measure(tests[i]);
        ASSERT_TRUE(r.found) << tests[i].name;
        if (std::abs(r.trip_point - clean_trips[i]) <= 3.0 * param.resolution) {
            ++recovered;
        }
    }
    EXPECT_EQ(recovered, tests.size());
    EXPECT_GT(injector.stats().injected(), 0u);
}

}  // namespace
}  // namespace cichar::core
