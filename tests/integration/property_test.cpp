// Cross-cutting property suites: invariants that must hold across all
// parameters, noise levels, and seeds — the glue-level guarantees the
// characterization flows rely on.
#include <gtest/gtest.h>

#include "core/characterizer.hpp"
#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"

namespace cichar {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    o.noise_sigma_mhz = 0.0;
    o.noise_sigma_v = 0.0;
    return o;
}

ate::Parameter parameter_of(device::ParameterKind kind) {
    switch (kind) {
        case device::ParameterKind::kDataValidTime:
            return ate::Parameter::data_valid_time();
        case device::ParameterKind::kMaxFrequency:
            return ate::Parameter::max_frequency();
        case device::ParameterKind::kMinVdd:
            return ate::Parameter::min_vdd();
    }
    return ate::Parameter::data_valid_time();
}

// ---------------------------------------------------------------------
// Property: for EVERY supported parameter, the full multi-trip stack
// converges to the device's ground truth within twice the tester
// resolution, and WCR classification is consistent with the spec.
class ParameterSweepTest
    : public ::testing::TestWithParam<device::ParameterKind> {};

TEST_P(ParameterSweepTest, MultiTripMatchesGroundTruth) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    const ate::Parameter param = parameter_of(GetParam());
    core::TripSession session(tester, param, core::MultiTripOptions{});

    testgen::RandomTestGenerator generator;
    util::Rng rng(31);
    for (int i = 0; i < 12; ++i) {
        const testgen::Test test =
            generator.random_test(rng, std::string("p").append(std::to_string(i)));
        const core::TripPointRecord record = session.measure(test);
        ASSERT_TRUE(record.found) << param.name << " test " << i;
        const double truth = chip.true_parameter(test, param.kind);
        EXPECT_NEAR(record.trip_point, truth, 2.0 * param.resolution)
            << param.name << " test " << i;
        // The trip point estimate sits on the PASS side of the truth.
        if (param.fail_high) {
            EXPECT_LE(record.trip_point, truth + param.resolution);
        } else {
            EXPECT_GE(record.trip_point, truth - param.resolution);
        }
        EXPECT_EQ(record.wcr_class, ga::classify(record.wcr));
    }
}

TEST_P(ParameterSweepTest, WcrDirectionConsistent) {
    // Worsening the measured value (toward the spec) must increase WCR.
    const ate::Parameter param = parameter_of(GetParam());
    const double mid =
        0.5 * (param.search_start + param.search_end);
    const double toward_spec =
        param.spec_type == ate::SpecType::kMinLimit ? mid * 0.9 : mid * 1.1;
    EXPECT_GT(core::worst_case_ratio(param, toward_spec),
              core::worst_case_ratio(param, mid));
}

INSTANTIATE_TEST_SUITE_P(
    AllParameters, ParameterSweepTest,
    ::testing::Values(device::ParameterKind::kDataValidTime,
                      device::ParameterKind::kMaxFrequency,
                      device::ParameterKind::kMinVdd),
    [](const auto& suite_info) {
        return std::string(device::to_string(suite_info.param)) == "T_DQ"
                   ? "Tdq"
                   : std::string(device::to_string(suite_info.param));
    });

// ---------------------------------------------------------------------
// Property: measurement noise shifts trip points by O(sigma), never
// breaks convergence.
class NoiseSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweepTest, SearchConvergesUnderNoise) {
    device::MemoryChipOptions opts;
    opts.noise_sigma_ns = GetParam();
    device::MemoryTestChip chip({}, opts);
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    core::TripSession session(tester, param, core::MultiTripOptions{});

    testgen::RandomTestGenerator generator;
    util::Rng rng(17);
    for (int i = 0; i < 8; ++i) {
        const testgen::Test test =
            generator.random_test(rng, std::string("n").append(std::to_string(i)));
        const core::TripPointRecord record = session.measure(test);
        ASSERT_TRUE(record.found);
        const double truth = chip.true_parameter(
            test, device::ParameterKind::kDataValidTime);
        // Allow a handful of sigmas plus the grid resolution.
        EXPECT_NEAR(record.trip_point, truth,
                    5.0 * GetParam() + 2.0 * param.resolution);
    }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseSweepTest,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10, 0.20));

// ---------------------------------------------------------------------
// Property: the ledger conserves counts — the total equals the sum over
// phases, with every flow contributing to its named phase.
TEST(LedgerConservationTest, PhasesSumToTotal) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 30;
    options.learner.committee.members = 2;
    options.learner.committee.train.max_epochs = 40;
    options.optimizer.ga.population.size = 8;
    options.optimizer.ga.populations = 1;
    options.optimizer.ga.max_generations = 3;
    options.optimizer.nn_candidates = 50;
    core::DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);
    util::Rng rng(5);
    (void)characterizer.run_full(rng);
    (void)characterizer.characterize_random(5, rng);

    std::uint64_t phase_sum = 0;
    for (const std::string& phase : tester.log().phases()) {
        phase_sum += tester.log().phase_counters(phase).applications;
    }
    EXPECT_EQ(phase_sum, tester.log().total().applications);
    EXPECT_GT(tester.log().phase_counters("learning").applications, 0u);
    EXPECT_GT(tester.log().phase_counters("ga-optimization").applications,
              0u);
    EXPECT_GT(tester.log().phase_counters("multi-trip").applications, 0u);
}

// ---------------------------------------------------------------------
// Property: the whole pipeline is bit-reproducible from its seed.
TEST(DeterminismTest, FullPipelineReproducible) {
    const auto run = [] {
        device::MemoryTestChip chip({}, noiseless());
        ate::Tester tester(chip);
        core::CharacterizerOptions options;
        options.generator.condition_bounds =
            testgen::ConditionBounds::fixed_nominal();
        options.learner.training_tests = 40;
        options.learner.committee.members = 2;
        options.learner.committee.train.max_epochs = 50;
        options.optimizer.ga.population.size = 10;
        options.optimizer.ga.populations = 2;
        options.optimizer.ga.max_generations = 5;
        options.optimizer.nn_candidates = 80;
        core::DeviceCharacterizer characterizer(
            tester, ate::Parameter::data_valid_time(), options);
        util::Rng rng(12345);
        const core::WorstCaseReport report = characterizer.run_full(rng);
        return std::make_tuple(report.outcome.best_fitness,
                               report.worst_record.trip_point,
                               report.outcome.evaluations,
                               tester.log().total().applications);
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------
// Property: with per-measurement noise the learner and optimizer still
// produce a usable result (the real-silicon regime).
TEST(NoisyPipelineTest, HuntSurvivesRealisticNoise) {
    device::MemoryTestChip chip;  // default: noisy
    ate::Tester tester(chip);
    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 60;
    options.learner.committee.members = 3;
    options.learner.committee.train.max_epochs = 80;
    options.optimizer.ga.population.size = 12;
    options.optimizer.ga.populations = 2;
    options.optimizer.ga.max_generations = 12;
    options.optimizer.nn_candidates = 200;
    core::DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);
    util::Rng rng(777);
    const core::WorstCaseReport report = characterizer.run_full(rng);
    ASSERT_TRUE(report.worst_record.found);
    EXPECT_GT(report.outcome.best_fitness, 0.75);
    EXPECT_LT(report.worst_record.trip_point, 26.0);
}

// ---------------------------------------------------------------------
// Control experiment: on a device WITHOUT the interaction pocket (a
// well-behaved design), the NN+GA hunt finds only what random search
// finds — the Table 1 gap is a property of the hidden worst case, not an
// artifact of the optimizer.
TEST(NoPocketControlTest, GaAdvantageVanishesOnWellBehavedDevice) {
    device::TimingSensitivities sens;
    sens.pocket_ns = 0.0;  // no hidden interaction pocket
    const device::TimingModel model(sens, device::DeratingModel{});
    device::MemoryTestChip chip({}, noiseless(), model);
    ate::Tester tester(chip);

    core::CharacterizerOptions options;
    options.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.learner.training_tests = 60;
    options.learner.committee.members = 3;
    options.learner.committee.train.max_epochs = 80;
    options.optimizer.ga.population.size = 14;
    options.optimizer.ga.populations = 2;
    options.optimizer.ga.max_generations = 15;
    options.optimizer.nn_candidates = 300;
    core::DeviceCharacterizer characterizer(
        tester, ate::Parameter::data_valid_time(), options);
    util::Rng rng(2005);

    const core::DesignSpecVariation random_dsv =
        characterizer.characterize_random(300, rng);
    const double random_best = random_dsv.worst().wcr;

    const core::WorstCaseReport report = characterizer.run_full(rng);

    // The GA still squeezes the linear terms, but the dramatic Table 1
    // gap (0.70 -> 0.92) collapses to a modest margin.
    EXPECT_LT(report.outcome.best_fitness, random_best + 0.07);
    EXPECT_LT(report.outcome.best_fitness, 0.82);
}

}  // namespace
}  // namespace cichar
