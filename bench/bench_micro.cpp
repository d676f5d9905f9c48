// Micro-benchmarks (google-benchmark): throughput of the hot inner pieces
// — pattern expansion, feature folding, device evaluation, trip-point
// searches, NN forward/training, GA generations. These bound how many
// characterization evaluations per second the simulated rig sustains.
#include <benchmark/benchmark.h>

#include <vector>

#include "ate/search.hpp"
#include "ate/search_until_trip.hpp"
#include "ate/tester.hpp"
#include "device/memory_chip.hpp"
#include "ga/multi_population.hpp"
#include "nn/trainer.hpp"
#include "testgen/features.hpp"
#include "testgen/march.hpp"
#include "testgen/random_gen.hpp"

namespace {

using namespace cichar;

testgen::Test make_random_test(std::uint32_t cycles) {
    testgen::RandomTestGenerator gen;
    testgen::PatternRecipe r;
    r.cycles = cycles;
    r.seed = 99;
    return gen.make_test(r, {}, "bench");
}

void BM_PatternExpansion(benchmark::State& state) {
    // GA-like traffic: rotate through 256 random recipes, so the cycle
    // counts and per-cycle probabilities vary from call to call as they
    // do in a hunt. Items are vector cycles.
    const testgen::RandomTestGenerator gen;
    util::Rng rng(7);
    std::vector<testgen::PatternRecipe> recipes(256);
    for (testgen::PatternRecipe& r : recipes) r = gen.random_recipe(rng);
    std::size_t next = 0;
    std::int64_t cycles = 0;
    for (auto _ : state) {
        const testgen::PatternRecipe& r = recipes[next];
        next = (next + 1) % recipes.size();
        benchmark::DoNotOptimize(gen.expand(r));
        cycles += r.cycles;
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PatternExpansion);

void BM_FeatureExtraction(benchmark::State& state) {
    // A pattern folds its feature statistics as its cycles are added, so
    // deriving the features costs building the pattern from its cycles
    // plus the O(1) finalize.
    const testgen::Test test =
        make_random_test(static_cast<std::uint32_t>(state.range(0)));
    const std::vector<testgen::VectorCycle> cycles(test.pattern.cycles().begin(),
                                                   test.pattern.cycles().end());
    for (auto _ : state) {
        const testgen::TestPattern pattern("fold", cycles);
        benchmark::DoNotOptimize(testgen::extract_pattern_features(pattern));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FeatureExtraction)->Arg(100)->Arg(1000);

void BM_DeviceMeasurement(benchmark::State& state) {
    device::MemoryTestChip chip;
    const testgen::Test test = make_random_test(500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            chip.passes(test, device::ParameterKind::kDataValidTime, 25.0));
    }
}
BENCHMARK(BM_DeviceMeasurement);

void BM_FunctionalMarch(benchmark::State& state) {
    device::MemoryTestChip chip;
    const testgen::Test march =
        testgen::make_test(testgen::march_c_minus().expand());
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.run_functional(march));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(march.pattern.size()));
}
BENCHMARK(BM_FunctionalMarch);

void BM_TripSearchBinary(benchmark::State& state) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::Test test = make_random_test(500);
    const ate::BinarySearch search;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            search.find(tester.oracle(test, param), param));
    }
}
BENCHMARK(BM_TripSearchBinary);

void BM_TripSearchUntilTrip(benchmark::State& state) {
    device::MemoryTestChip chip;
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::Test test = make_random_test(500);
    const double truth =
        chip.true_parameter(test, device::ParameterKind::kDataValidTime);
    ate::SearchUntilTrip::Options opts;
    opts.search_factor = 0.2;
    const ate::SearchUntilTrip search(opts, truth - 0.7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            search.find(tester.oracle(test, param), param));
    }
}
BENCHMARK(BM_TripSearchUntilTrip);

void BM_MlpForward(benchmark::State& state) {
    const std::vector<std::size_t> sizes{testgen::kFeatureCount, 24, 12, 3};
    nn::Mlp net(sizes, nn::Activation::kTanh, nn::Activation::kSigmoid);
    util::Rng rng(1);
    net.init_weights(rng);
    std::vector<double> x(testgen::kFeatureCount, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(x));
    }
}
BENCHMARK(BM_MlpForward);

void BM_MlpTrainEpoch(benchmark::State& state) {
    const std::vector<std::size_t> sizes{testgen::kFeatureCount, 24, 12, 3};
    util::Rng rng(2);
    nn::Dataset data(testgen::kFeatureCount, 3);
    for (int i = 0; i < 150; ++i) {
        std::vector<double> x(testgen::kFeatureCount);
        for (double& v : x) v = rng.uniform();
        data.add(std::move(x), {rng.uniform(), rng.uniform(), rng.uniform()});
    }
    nn::TrainOptions opts;
    opts.max_epochs = 1;
    opts.patience = 0;
    const nn::Trainer trainer(opts);
    for (auto _ : state) {
        nn::Mlp net(sizes, nn::Activation::kTanh, nn::Activation::kSigmoid);
        net.init_weights(rng);
        benchmark::DoNotOptimize(trainer.train(net, data, nn::Dataset{}, rng));
    }
    state.SetItemsProcessed(state.iterations() * 150);
}
BENCHMARK(BM_MlpTrainEpoch);

void BM_GaGeneration(benchmark::State& state) {
    const ga::FitnessFn cheap = [](const ga::TestChromosome& c) {
        double s = 0.0;
        for (const double g : c.sequence) s += g;
        return s;
    };
    util::Rng rng(3);
    ga::PopulationOptions opts;
    opts.size = 24;
    ga::Population pop(opts, {}, rng);
    (void)pop.evaluate(cheap);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pop.step(cheap, rng));
    }
    state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_GaGeneration);

}  // namespace
