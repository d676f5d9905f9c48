#include "core/sample.hpp"

#include <gtest/gtest.h>

#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

std::vector<testgen::Test> random_tests(std::size_t n) {
    testgen::RandomGeneratorOptions opts;
    opts.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    testgen::RandomTestGenerator gen(opts);
    util::Rng rng(3);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < n; ++i) {
        tests.push_back(gen.random_test(rng, std::string("t").append(std::to_string(i))));
    }
    return tests;
}

SampleOptions small_sample() {
    SampleOptions opts;
    opts.dies = 5;
    opts.chip.noise_sigma_ns = 0.0;
    return opts;
}

TEST(SampleTest, OneCampaignPerDie) {
    const SampleCharacterizer characterizer(small_sample());
    util::Rng rng(1);
    const SampleResult result = characterizer.run(
        ate::Parameter::data_valid_time(), random_tests(6), rng);
    ASSERT_EQ(result.dies.size(), 5u);
    for (const DieCampaign& die : result.dies) {
        EXPECT_EQ(die.dsv.size(), 6u);
        EXPECT_GT(die.measurements, 0u);
    }
    EXPECT_EQ(result.per_die_worst().size(), 5u);
    EXPECT_GT(result.total_measurements(), 5u * 6u);
}

TEST(SampleTest, DiesActuallyDiffer) {
    const SampleCharacterizer characterizer(small_sample());
    util::Rng rng(2);
    const SampleResult result = characterizer.run(
        ate::Parameter::data_valid_time(), random_tests(4), rng);
    const auto worsts = result.per_die_worst();
    double lo = worsts[0];
    double hi = worsts[0];
    for (const double w : worsts) {
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    EXPECT_GT(hi - lo, 0.1);  // process variation visible
}

TEST(SampleTest, WorstDieHasHighestWcr) {
    const SampleCharacterizer characterizer(small_sample());
    util::Rng rng(3);
    const SampleResult result = characterizer.run(
        ate::Parameter::data_valid_time(), random_tests(4), rng);
    const DieCampaign& worst = result.worst_die();
    for (const DieCampaign& die : result.dies) {
        EXPECT_LE(die.dsv.worst().wcr, worst.dsv.worst().wcr + 1e-12);
    }
}

TEST(SampleTest, PooledDsvHasAllRecords) {
    const SampleCharacterizer characterizer(small_sample());
    util::Rng rng(4);
    const SampleResult result = characterizer.run(
        ate::Parameter::data_valid_time(), random_tests(3), rng);
    EXPECT_EQ(result.pooled().size(), 5u * 3u);
}

TEST(SampleTest, EnvironmentGridMultipliesTests) {
    SampleOptions opts = small_sample();
    opts.dies = 2;
    opts.environment_grid = {{1.6, 85.0}, {2.0, -40.0}};
    const SampleCharacterizer characterizer(opts);
    util::Rng rng(5);
    const SampleResult result = characterizer.run(
        ate::Parameter::data_valid_time(), random_tests(3), rng);
    EXPECT_EQ(result.dies[0].dsv.size(), 3u * 2u);
}

TEST(SampleTest, LowVddEnvironmentWorse) {
    SampleOptions opts = small_sample();
    opts.dies = 1;
    opts.process.window_sigma_ns = 0.0;  // isolate the environment effect
    opts.process.sensitivity_sigma = 0.0;

    const auto worst_at = [&](double vdd) {
        SampleOptions env_opts = opts;
        env_opts.environment_grid = {{vdd, 25.0}};
        const SampleCharacterizer characterizer(env_opts);
        util::Rng rng(6);
        const SampleResult result = characterizer.run(
            ate::Parameter::data_valid_time(), random_tests(4), rng);
        return result.dies[0].dsv.worst().trip_point;
    };
    EXPECT_LT(worst_at(1.5), worst_at(2.1));
}

TEST(SampleTest, SpecProposalFromPooledSample) {
    const SampleCharacterizer characterizer(small_sample());
    util::Rng rng(7);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const SampleResult result =
        characterizer.run(param, random_tests(5), rng);
    const SpecProposal proposal = propose_spec(param, result.pooled(), 0.05);
    EXPECT_EQ(proposal.tests, result.pooled().found_count());
    EXPECT_LT(proposal.proposed_limit, proposal.observed_worst);
    EXPECT_TRUE(proposal.meets_target);
}

TEST(SampleTest, DeterministicGivenSeed) {
    const SampleCharacterizer characterizer(small_sample());
    const auto run = [&](std::uint64_t seed) {
        util::Rng rng(seed);
        return characterizer
            .run(ate::Parameter::data_valid_time(), random_tests(3), rng)
            .worst_die()
            .dsv.worst()
            .trip_point;
    };
    EXPECT_EQ(run(11), run(11));
}

TEST(SampleTest, EmptyResultThrowsOnWorstDie) {
    SampleResult empty;
    EXPECT_THROW((void)empty.worst_die(), std::logic_error);
}

}  // namespace
}  // namespace cichar::core
