#include "ga/multi_population.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace cichar::ga {
namespace {

double hill(const TestChromosome& c) {
    double score = 1.0;
    for (const double g : c.sequence) {
        score -= 0.1 * (g - 0.6) * (g - 0.6);
    }
    return score;
}

MultiPopulationOptions small_options() {
    MultiPopulationOptions opts;
    opts.population.size = 12;
    opts.population.elite = 2;
    opts.populations = 3;
    opts.max_generations = 15;
    opts.stagnation_limit = 5;
    return opts;
}

TEST(MultiPopulationTest, RunsAndImproves) {
    util::Rng rng(1);
    const MultiPopulationGa driver(small_options());
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    EXPECT_GT(outcome.best_fitness, 0.97);
    EXPECT_EQ(outcome.generations_run, 15u);
    EXPECT_GT(outcome.evaluations, 36u);
    EXPECT_EQ(outcome.best_history.size(), outcome.generations_run);
}

TEST(MultiPopulationTest, HistoryMonotone) {
    util::Rng rng(2);
    const MultiPopulationGa driver(small_options());
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    for (std::size_t i = 1; i < outcome.best_history.size(); ++i) {
        EXPECT_GE(outcome.best_history[i], outcome.best_history[i - 1]);
    }
}

TEST(MultiPopulationTest, TargetFitnessStopsEarly) {
    util::Rng rng(3);
    MultiPopulationOptions opts = small_options();
    opts.target_fitness = 0.5;  // trivially reachable
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    EXPECT_TRUE(outcome.target_reached);
    EXPECT_LT(outcome.generations_run, 15u);
}

TEST(MultiPopulationTest, SeedsSpreadAcrossPopulations) {
    util::Rng rng(4);
    // A seed placed exactly at the optimum: the outcome must include it
    // immediately (dealt into some population and evaluated).
    TestChromosome perfect;
    perfect.sequence.fill(0.6);
    perfect.condition.fill(0.5);
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 0;  // no evolution, only initial evaluation
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(hill, {perfect}, rng);
    EXPECT_NEAR(outcome.best_fitness, 1.0, 1e-9);
}

TEST(MultiPopulationTest, StagnationTriggersRestarts) {
    util::Rng rng(5);
    const FitnessFn flat = [](const TestChromosome&) { return 1.0; };
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 25;
    opts.stagnation_limit = 3;
    opts.max_restarts = 4;
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(flat, {}, rng);
    EXPECT_GT(outcome.restarts, 0u);
    EXPECT_LE(outcome.restarts, 4u);
}

TEST(MultiPopulationTest, EvaluationsAccumulateAcrossPopulations) {
    util::Rng rng(6);
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 2;
    opts.stagnation_limit = 100;  // no restarts
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    // 3 pops * (12 initial + 2 gens * 10 offspring) = 96.
    EXPECT_EQ(outcome.evaluations, 3u * (12u + 2u * 10u));
}

TEST(MultiPopulationTest, MigrationInjectsGlobalBest) {
    util::Rng rng(7);
    MultiPopulationOptions opts = small_options();
    opts.migration_interval = 3;
    opts.max_generations = 9;
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    EXPECT_GT(outcome.best_fitness, 0.97);
}

TEST(MultiPopulationTest, DeterministicGivenSeed) {
    const auto run = [](std::uint64_t seed) {
        util::Rng rng(seed);
        const MultiPopulationGa driver(small_options());
        return driver.run(hill, {}, rng).best_fitness;
    };
    EXPECT_EQ(run(123), run(123));
}

TEST(MultiPopulationTest, MigrationDoesNotRemeasureCarriedElites) {
    util::Rng rng(9);
    std::size_t calls = 0;
    const FitnessFn counted = [&](const TestChromosome& c) {
        ++calls;
        return hill(c);
    };
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 6;
    opts.migration_interval = 3;
    opts.stagnation_limit = 100;  // no restarts
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(counted, {}, rng);
    // 3 pops * 12 initial + 6 gens * 3 pops * 10 offspring
    // + 2 migrations * 3 pops * 10 fresh fillers: the two migrated elites
    //   per population carry their already-measured fitness.
    EXPECT_EQ(outcome.evaluations, 36u + 180u + 60u);
    EXPECT_EQ(calls, outcome.evaluations);
}

TEST(MultiPopulationTest, BatchRunMatchesPerIndividualRun) {
    const auto run = [](const auto& fitness) {
        util::Rng rng(10);
        const MultiPopulationGa driver(small_options());
        return driver.run(fitness, {}, rng);
    };
    const MultiPopulationOutcome a = run(FitnessFn(hill));
    const MultiPopulationOutcome b = run(as_batch(hill));
    EXPECT_EQ(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.best.sequence, b.best.sequence);
    EXPECT_EQ(a.best_history, b.best_history);
}

TEST(MultiPopulationTest, SinglePopulationWorks) {
    util::Rng rng(8);
    MultiPopulationOptions opts = small_options();
    opts.populations = 1;
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome outcome = driver.run(hill, {}, rng);
    EXPECT_GT(outcome.best_fitness, 0.9);
}


TEST(MultiPopulationTest, ResumedRunMatchesUninterruptedRun) {
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 10;
    opts.migration_interval = 4;  // exercise migration across the cut

    // Uninterrupted reference run.
    util::Rng rng_ref(33);
    const MultiPopulationGa driver(opts);
    const MultiPopulationOutcome reference =
        driver.run(as_batch(hill), {}, rng_ref);

    // Interrupted run: stop after generation 4, snapshotting loop + rng.
    util::Rng rng_cut(33);
    MultiPopulationCheckpoint snapshot;
    util::Rng rng_at_cut(0);
    MultiPopulationResume hooks;
    hooks.on_generation = [&](const MultiPopulationCheckpoint& ck) {
        if (ck.next_generation == 4) {
            snapshot = ck;
            rng_at_cut = rng_cut;  // the caller checkpoints its rng too
            return false;          // simulated crash
        }
        return true;
    };
    const MultiPopulationOutcome partial =
        driver.run(as_batch(hill), {}, rng_cut, hooks);
    EXPECT_EQ(partial.generations_run, 4u);

    // Round-trip the snapshot through bytes, like a real checkpoint file.
    std::string blob;
    snapshot.save(blob);
    util::ByteReader reader(blob);
    const MultiPopulationCheckpoint restored =
        MultiPopulationCheckpoint::load(reader, opts.population);
    EXPECT_TRUE(reader.at_end());

    MultiPopulationResume resume;
    resume.resume = &restored;
    const MultiPopulationOutcome resumed =
        driver.run(as_batch(hill), {}, rng_at_cut, resume);

    EXPECT_EQ(resumed.best_fitness, reference.best_fitness);
    EXPECT_EQ(resumed.best.sequence, reference.best.sequence);
    EXPECT_EQ(resumed.best.condition, reference.best.condition);
    EXPECT_EQ(resumed.best.pattern_seed, reference.best.pattern_seed);
    EXPECT_EQ(resumed.evaluations, reference.evaluations);
    EXPECT_EQ(resumed.generations_run, reference.generations_run);
    EXPECT_EQ(resumed.restarts, reference.restarts);
    EXPECT_EQ(resumed.best_history, reference.best_history);
}

TEST(MultiPopulationTest, OnGenerationObservesEveryGeneration) {
    MultiPopulationOptions opts = small_options();
    opts.max_generations = 5;
    util::Rng rng(34);
    std::vector<std::size_t> seen;
    MultiPopulationResume hooks;
    hooks.on_generation = [&](const MultiPopulationCheckpoint& ck) {
        seen.push_back(ck.next_generation);
        return true;
    };
    const MultiPopulationGa driver(opts);
    (void)driver.run(as_batch(hill), {}, rng, hooks);
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

TEST(MultiPopulationTest, CheckpointLoadRefusesForgedPopulationCount) {
    std::string blob;
    util::put_u64(blob, 1ULL << 40);
    blob.append(256, '\0');
    util::ByteReader reader(blob);
    EXPECT_THROW((void)MultiPopulationCheckpoint::load(
                     reader, small_options().population),
                 std::runtime_error);
}

TEST(MultiPopulationTest, OutcomeLoadRefusesForgedHistoryLength) {
    // A forged history length is refused before reserving for it (it
    // used to reserve up to 128 MiB first).
    MultiPopulationOutcome outcome;
    outcome.best_history = {0.5, 0.75};
    std::string blob;
    outcome.save(blob);
    // The history count sits just before the two saved values.
    const std::size_t count_at = blob.size() - 2 * 8 - 8;
    std::string forged = blob.substr(0, count_at);
    util::put_u64(forged, 1ULL << 40);
    forged.append(blob.substr(count_at + 8));
    util::ByteReader reader(forged);
    EXPECT_THROW((void)MultiPopulationOutcome::load(reader),
                 std::runtime_error);

    util::ByteReader intact(blob);
    EXPECT_EQ(MultiPopulationOutcome::load(intact).best_history,
              outcome.best_history);
}

}  // namespace
}  // namespace cichar::ga
