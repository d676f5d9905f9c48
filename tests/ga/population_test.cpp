#include "ga/population.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cichar::ga {
namespace {

/// Smooth unimodal fitness: best at all sequence genes = 0.7.
double hill(const TestChromosome& c) {
    double score = 0.0;
    for (const double g : c.sequence) {
        score -= (g - 0.7) * (g - 0.7);
    }
    return score;
}

PopulationOptions small_options() {
    PopulationOptions opts;
    opts.size = 16;
    opts.elite = 2;
    return opts;
}

TEST(PopulationTest, FillsToSizeWithRandoms) {
    util::Rng rng(1);
    Population pop(small_options(), {}, rng);
    EXPECT_EQ(pop.size(), 16u);
    EXPECT_EQ(pop.generation(), 0u);
}

TEST(PopulationTest, SeedsIncluded) {
    util::Rng rng(2);
    TestChromosome seed;
    seed.sequence.fill(0.123);
    Population pop(small_options(), {seed}, rng);
    EXPECT_EQ(pop.individual(0).chromosome.sequence[0], 0.123);
}

TEST(PopulationTest, ExtraSeedsTruncated) {
    util::Rng rng(3);
    std::vector<TestChromosome> seeds(40, TestChromosome::random(rng));
    Population pop(small_options(), std::move(seeds), rng);
    EXPECT_EQ(pop.size(), 16u);
}

TEST(PopulationTest, EvaluateCountsOnlyUnevaluated) {
    util::Rng rng(4);
    Population pop(small_options(), {}, rng);
    EXPECT_EQ(pop.evaluate(hill), 16u);
    EXPECT_EQ(pop.evaluate(hill), 0u);  // cached
}

TEST(PopulationTest, BestThrowsBeforeEvaluation) {
    util::Rng rng(5);
    Population pop(small_options(), {}, rng);
    EXPECT_THROW((void)pop.best(), std::logic_error);
}

TEST(PopulationTest, BestIsMaximal) {
    util::Rng rng(6);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    const Individual& best = pop.best();
    for (std::size_t i = 0; i < pop.size(); ++i) {
        EXPECT_GE(best.fitness, pop.individual(i).fitness);
    }
}

TEST(PopulationTest, ElitismNeverRegresses) {
    util::Rng rng(7);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    double previous = pop.best().fitness;
    for (int gen = 0; gen < 20; ++gen) {
        (void)pop.step(hill, rng);
        EXPECT_GE(pop.best().fitness, previous - 1e-12);
        previous = pop.best().fitness;
    }
}

TEST(PopulationTest, ClimbsTheHill) {
    util::Rng rng(8);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    const double start = pop.best().fitness;
    for (int gen = 0; gen < 30; ++gen) (void)pop.step(hill, rng);
    EXPECT_GT(pop.best().fitness, start);
    EXPECT_GT(pop.best().fitness, -0.05);  // near the optimum
}

TEST(PopulationTest, GenerationCounterAdvances) {
    util::Rng rng(9);
    Population pop(small_options(), {}, rng);
    (void)pop.step(hill, rng);
    (void)pop.step(hill, rng);
    EXPECT_EQ(pop.generation(), 2u);
}

TEST(PopulationTest, StagnationGrowsOnPlateau) {
    util::Rng rng(10);
    // Constant fitness: no improvement is possible.
    const FitnessFn flat = [](const TestChromosome&) { return 1.0; };
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(flat);
    for (int gen = 0; gen < 5; ++gen) (void)pop.step(flat, rng);
    EXPECT_GE(pop.stagnation(), 4u);
}

TEST(PopulationTest, RestartResetsEverything) {
    util::Rng rng(11);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    for (int gen = 0; gen < 5; ++gen) (void)pop.step(hill, rng);
    pop.restart(rng);
    EXPECT_EQ(pop.stagnation(), 0u);
    EXPECT_THROW((void)pop.best(), std::logic_error);  // unevaluated again
    EXPECT_EQ(pop.evaluate(hill), 16u);
}

TEST(PopulationTest, StepEvaluationCountBounded) {
    util::Rng rng(12);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    // Each step creates size - elite new individuals.
    const std::size_t evals = pop.step(hill, rng);
    EXPECT_EQ(evals, 16u - 2u);
}

TEST(PopulationTest, DeterministicGivenSeed) {
    const auto run = [](std::uint64_t seed) {
        util::Rng rng(seed);
        Population pop(small_options(), {}, rng);
        (void)pop.evaluate(hill);
        for (int gen = 0; gen < 10; ++gen) (void)pop.step(hill, rng);
        return pop.best().fitness;
    };
    EXPECT_EQ(run(99), run(99));
}

TEST(PopulationTest, BatchEvaluateMatchesPerIndividual) {
    util::Rng rng_a(20);
    util::Rng rng_b(20);
    Population a(small_options(), {}, rng_a);
    Population b(small_options(), {}, rng_b);
    EXPECT_EQ(a.evaluate(hill), b.evaluate(as_batch(hill)));
    for (int gen = 0; gen < 8; ++gen) {
        EXPECT_EQ(a.step(hill, rng_a), b.step(as_batch(hill), rng_b));
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.individual(i).fitness, b.individual(i).fitness);
        EXPECT_EQ(a.individual(i).chromosome.sequence,
                  b.individual(i).chromosome.sequence);
    }
}

TEST(PopulationTest, BatchReceivesOnlyUnevaluated) {
    util::Rng rng(21);
    std::size_t seen = 0;
    const BatchFitnessFn counting =
        [&](std::span<const TestChromosome> batch) {
            seen += batch.size();
            std::vector<double> values;
            values.reserve(batch.size());
            for (const TestChromosome& c : batch) values.push_back(hill(c));
            return values;
        };
    Population pop(small_options(), {}, rng);
    EXPECT_EQ(pop.evaluate(counting), 16u);
    EXPECT_EQ(pop.evaluate(counting), 0u);  // everyone cached
    EXPECT_EQ(seen, 16u);
}

TEST(PopulationTest, BatchSizeMismatchThrows) {
    util::Rng rng(22);
    const BatchFitnessFn bad = [](std::span<const TestChromosome>) {
        return std::vector<double>{};  // wrong length on purpose
    };
    Population pop(small_options(), {}, rng);
    EXPECT_THROW((void)pop.evaluate(bad), std::logic_error);
}

TEST(PopulationTest, PreloadSkipsReEvaluation) {
    util::Rng rng(23);
    TestChromosome seed;
    seed.sequence.fill(0.7);  // the hill optimum
    Population pop(small_options(), {seed}, rng);
    pop.preload(0, 42.0);  // carried-over measurement, not hill(seed)
    EXPECT_EQ(pop.evaluate(hill), 16u - 1u);
    EXPECT_EQ(pop.individual(0).fitness, 42.0);
    EXPECT_EQ(pop.best().fitness, 42.0);
}


TEST(PopulationTest, PreloadOutOfRangeThrows) {
    util::Rng rng(21);
    Population pop(small_options(), {}, rng);
    EXPECT_THROW(pop.preload(pop.size(), 1.0), std::out_of_range);
    EXPECT_THROW(pop.preload(pop.size() + 100, 1.0), std::out_of_range);
    pop.preload(pop.size() - 1, 2.5);  // last valid index still works
    EXPECT_EQ(pop.individual(pop.size() - 1).fitness, 2.5);
}

TEST(PopulationTest, SaveLoadRoundTripsMidEvolutionState) {
    util::Rng rng(22);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    (void)pop.step(hill, rng);
    (void)pop.step(hill, rng);

    std::string blob;
    pop.save(blob);
    util::ByteReader reader(blob);
    Population restored = Population::load(reader, small_options());
    EXPECT_TRUE(reader.at_end());

    ASSERT_EQ(restored.size(), pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
        EXPECT_EQ(restored.individual(i).chromosome,
                  pop.individual(i).chromosome);
        EXPECT_EQ(restored.individual(i).fitness, pop.individual(i).fitness);
        EXPECT_EQ(restored.individual(i).evaluated,
                  pop.individual(i).evaluated);
    }
    EXPECT_EQ(restored.generation(), pop.generation());
    EXPECT_EQ(restored.stagnation(), pop.stagnation());
    EXPECT_EQ(restored.best().fitness, pop.best().fitness);

    // Evolution continues identically from both objects.
    util::Rng rng_a = rng;
    util::Rng rng_b = rng;
    (void)pop.step(hill, rng_a);
    (void)restored.step(hill, rng_b);
    for (std::size_t i = 0; i < pop.size(); ++i) {
        EXPECT_EQ(restored.individual(i).chromosome,
                  pop.individual(i).chromosome);
    }
}

TEST(PopulationTest, LoadRejectsTruncatedBlob) {
    util::Rng rng(23);
    Population pop(small_options(), {}, rng);
    (void)pop.evaluate(hill);
    std::string blob;
    pop.save(blob);
    util::ByteReader reader(std::string_view(blob).substr(0, blob.size() / 2));
    EXPECT_THROW((void)Population::load(reader, small_options()),
                 std::runtime_error);
}

TEST(PopulationTest, LoadRefusesForgedIndividualCount) {
    // The count must fit in the bytes left at one saved individual each,
    // so a forged count fails before a multi-gigabyte reserve.
    std::string blob;
    util::put_u64(blob, 1ULL << 40);
    blob.append(256, '\0');
    util::ByteReader reader(blob);
    EXPECT_THROW((void)Population::load(reader, small_options()),
                 std::runtime_error);
}

}  // namespace
}  // namespace cichar::ga
