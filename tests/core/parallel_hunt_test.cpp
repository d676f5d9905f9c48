// Determinism and cache-efficiency tests for the parallel worst-case
// hunt: one seed must produce a byte-identical hunt report at any worker
// count, and the trip-point cache must cut live ATE measurements without
// changing the hunt's outcome on a noiseless DUT.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "testgen/features.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

OptimizerOptions parallel_options(std::size_t jobs, bool cache) {
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 3;
    opts.ga.max_generations = 10;
    opts.ga.stagnation_limit = 6;
    opts.ga.max_restarts = 2;
    opts.ga.migration_interval = 4;
    // Calm operators (as in bench_hunt_scaling) so the GA re-emits enough
    // duplicate chromosomes to exercise the cache-hit path.
    opts.ga.population.operators.crossover_rate = 0.8;
    opts.ga.population.operators.mutation_rate = 0.10;
    opts.ga.population.operators.reset_rate = 0.01;
    opts.ga.population.operators.seed_mutation_rate = 0.05;
    opts.parallel.jobs = jobs;
    opts.cache.enabled = cache;
    return opts;
}

struct HuntResult {
    WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
};

HuntResult run_hunt(std::size_t jobs, bool cache) {
    device::MemoryTestChip chip({}, noiseless());
    ate::Tester tester(chip);
    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const WorstCaseOptimizer optimizer(parallel_options(jobs, cache));

    HuntResult result;
    result.report = optimizer.run_unseeded(
        tester, ate::Parameter::data_valid_time(), generator,
        Objective::kDriftToMinimum, rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &result.report;
    result.rendered = render_report(inputs);
    result.applications = tester.log().total().applications;
    return result;
}

TEST(ParallelHuntTest, ReportByteIdenticalAtJobs128) {
    const HuntResult j1 = run_hunt(1, true);
    const HuntResult j2 = run_hunt(2, true);
    const HuntResult j8 = run_hunt(8, true);

    EXPECT_EQ(j1.report.outcome.best_fitness, j2.report.outcome.best_fitness);
    EXPECT_EQ(j1.report.outcome.best_fitness, j8.report.outcome.best_fitness);
    EXPECT_EQ(j1.report.outcome.best.sequence, j8.report.outcome.best.sequence);
    EXPECT_EQ(j1.report.outcome.best.condition, j8.report.outcome.best.condition);
    EXPECT_EQ(j1.rendered, j2.rendered);
    EXPECT_EQ(j1.rendered, j8.rendered);
    // Same number of live measurements too, not merely the same winner.
    EXPECT_EQ(j1.applications, j2.applications);
    EXPECT_EQ(j1.applications, j8.applications);
}

TEST(ParallelHuntTest, CacheCutsMeasurementsWithoutChangingOutcome) {
    const HuntResult cached = run_hunt(2, true);
    const HuntResult uncached = run_hunt(2, false);

    EXPECT_GT(cached.report.cache_stats.hits, 0u);
    EXPECT_GT(cached.report.cache_stats.misses, 0u);
    EXPECT_LT(cached.applications, uncached.applications);
    EXPECT_LT(cached.report.ate_measurements, uncached.report.ate_measurements);
    // A hit replays the measured record; with a noiseless DUT that equals
    // what a re-measurement would have returned, so the hunt trajectory
    // (and thus the winner) is unchanged.
    EXPECT_EQ(cached.report.outcome.best_fitness,
              uncached.report.outcome.best_fitness);
    EXPECT_EQ(uncached.report.cache_stats.lookups(), 0u);
}

TEST(ParallelHuntTest, CacheStatsSurfaceInReport) {
    const HuntResult cached = run_hunt(2, true);
    EXPECT_NE(cached.rendered.find("trip cache:"), std::string::npos);
    const HuntResult uncached = run_hunt(2, false);
    EXPECT_EQ(uncached.rendered.find("trip cache:"), std::string::npos);
}

TEST(ParallelHuntTest, WarmSlabMatchesColdClonesAtAnySize) {
    // The slab is a pure perf layer: forced cold clones (slab 0), an
    // undersized slab (every lease a transient miss beyond slot 1), and
    // the auto slab must render the same report from the same seed.
    const auto run_with_slab = [](std::size_t slab) {
        device::MemoryTestChip chip({}, noiseless());
        ate::Tester tester(chip);
        util::Rng rng(2005);
        testgen::RandomGeneratorOptions generator;
        generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
        OptimizerOptions opts = parallel_options(4, true);
        opts.parallel.replica_slab = slab;
        const WorstCaseOptimizer optimizer(opts);
        HuntResult result;
        result.report = optimizer.run_unseeded(
            tester, ate::Parameter::data_valid_time(), generator,
            Objective::kDriftToMinimum, rng);
        ReportInputs inputs;
        inputs.seed = 2005;
        inputs.hunt = &result.report;
        result.rendered = render_report(inputs);
        return result;
    };
    const HuntResult cold = run_with_slab(0);
    const HuntResult tiny = run_with_slab(1);
    const HuntResult automatic =
        run_with_slab(HuntParallelOptions::kAutoSlab);

    EXPECT_EQ(cold.rendered, tiny.rendered);
    EXPECT_EQ(cold.rendered, automatic.rendered);
    EXPECT_EQ(cold.report.slab.acquires, 0u);  // slab disabled: no leases
    // Every lease was either a warm recycle or a cold rebuild (transient
    // misses included); the pre-fill accounts for the extra cold clones.
    EXPECT_GT(tiny.report.slab.acquires, 0u);
    EXPECT_EQ(tiny.report.slab.recycles + tiny.report.slab.cold_clones,
              tiny.report.slab.acquires + 1u);  // capacity-1 pre-fill
    EXPECT_GT(automatic.report.slab.recycles, 0u);
    EXPECT_EQ(automatic.report.slab.misses, 0u);
}

TEST(ParallelHuntTest, DefaultOptionsMatchAtJobs1AndJobs4) {
    // Replica evaluation is the only fitness engine: default options at
    // jobs 1 (inline, no pool) and jobs 4 must render the same report and
    // ledger on a noisy die — jobs changes speed, never results.
    const auto run_at = [](std::size_t jobs) {
        device::MemoryTestChip chip;
        ate::Tester tester(chip);
        util::Rng rng(2005);
        testgen::RandomGeneratorOptions generator;
        OptimizerOptions opts;
        opts.ga.population.size = 10;
        opts.ga.max_generations = 8;
        opts.parallel.jobs = jobs;
        const WorstCaseOptimizer optimizer(opts);
        HuntResult result;
        result.report = optimizer.run_unseeded(
            tester, ate::Parameter::data_valid_time(), generator,
            Objective::kDriftToMinimum, rng);
        ReportInputs inputs;
        inputs.seed = 2005;
        inputs.hunt = &result.report;
        inputs.ledger = &tester.log();
        result.rendered = render_report(inputs);
        result.applications = tester.log().total().applications;
        return result;
    };
    const HuntResult j1 = run_at(1);
    const HuntResult j4 = run_at(4);
    EXPECT_EQ(j1.report.jobs, 1u);
    EXPECT_EQ(j4.report.jobs, 4u);
    EXPECT_GT(j1.report.slab.acquires, 0u);  // measured on replicas
    EXPECT_EQ(j1.rendered, j4.rendered);
    EXPECT_EQ(j1.applications, j4.applications);
}

TEST(ParallelHuntTest, DeadReplicaKeepsItsFaultStatsAtAnyJobs) {
    // A replica that dies ends the hunt; the faults fired up to and
    // including the dying slot still reach the site's injector, and the
    // slots a worker measured past it never do, so the stats match at
    // any jobs count.
    const auto run_at = [](std::size_t jobs) {
        device::MemoryTestChip chip({}, noiseless());
        ate::Tester tester(chip);
        ate::FaultProfile profile;
        profile.site_death_rate = 0.002;
        profile.seed = 5;
        ate::FaultInjector injector(profile);
        tester.attach_fault_injector(&injector);
        util::Rng rng(2005);
        testgen::RandomGeneratorOptions generator;
        generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
        const WorstCaseOptimizer optimizer(parallel_options(jobs, true));
        EXPECT_THROW((void)optimizer.run_unseeded(
                         tester, ate::Parameter::data_valid_time(), generator,
                         Objective::kDriftToMinimum, rng),
                     ate::SiteDeadError);
        return injector.stats();
    };
    const ate::InjectionStats j1 = run_at(1);
    EXPECT_EQ(j1.site_deaths, 1u);
    EXPECT_GT(j1.measurements, 0u);
    EXPECT_EQ(j1, run_at(4));
}

TEST(ParallelHuntExpansionTest, FourThreadsExpandTheSerialPatterns) {
    // The hunt expands every fitness pattern on a pool worker, from the
    // one const generator shared by all of them: concurrent expansion
    // must reproduce the serial patterns and their folded features.
    const testgen::RandomTestGenerator generator;
    util::Rng rng(2005);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 24;
    std::vector<testgen::PatternRecipe> recipes;
    std::vector<testgen::TestConditions> conditions;
    for (std::size_t i = 0; i < kThreads * kPerThread; ++i) {
        recipes.push_back(generator.random_recipe(rng));
        conditions.push_back(generator.random_conditions(rng));
    }
    const auto name_of = [](std::size_t i) { return "ga-" + std::to_string(i); };

    std::vector<testgen::Test> serial;
    for (std::size_t i = 0; i < recipes.size(); ++i) {
        serial.push_back(
            generator.make_test(recipes[i], conditions[i], name_of(i)));
    }

    std::vector<testgen::Test> parallel(recipes.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Interleaved indices, so the threads expand side by side.
            for (std::size_t i = t; i < recipes.size(); i += kThreads) {
                parallel[i] =
                    generator.make_test(recipes[i], conditions[i], name_of(i));
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t i = 0; i < recipes.size(); ++i) {
        EXPECT_EQ(parallel[i].name, serial[i].name);
        EXPECT_EQ(parallel[i].pattern, serial[i].pattern) << name_of(i);
        EXPECT_EQ(parallel[i].conditions, serial[i].conditions);
        EXPECT_EQ(testgen::extract_pattern_features(parallel[i].pattern).values,
                  testgen::extract_pattern_features(serial[i].pattern).values);
    }
}

}  // namespace
}  // namespace cichar::core
