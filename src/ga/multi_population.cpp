#include "ga/multi_population.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace cichar::ga {

void MultiPopulationOutcome::save(std::string& out) const {
    best.save(out);
    util::put_double(out, best_fitness);
    util::put_u64(out, generations_run);
    util::put_u64(out, evaluations);
    util::put_u64(out, restarts);
    util::put_bool(out, target_reached);
    util::put_u64(out, best_history.size());
    for (const double value : best_history) util::put_double(out, value);
}

MultiPopulationOutcome MultiPopulationOutcome::load(util::ByteReader& in) {
    MultiPopulationOutcome outcome;
    outcome.best = TestChromosome::load(in);
    outcome.best_fitness = in.get_double();
    outcome.generations_run = static_cast<std::size_t>(in.get_u64());
    outcome.evaluations = static_cast<std::size_t>(in.get_u64());
    outcome.restarts = static_cast<std::size_t>(in.get_u64());
    outcome.target_reached = in.get_bool();
    const std::uint64_t history = in.get_count(8);
    outcome.best_history.reserve(history);
    for (std::uint64_t i = 0; i < history; ++i) {
        outcome.best_history.push_back(in.get_double());
    }
    return outcome;
}

void MultiPopulationCheckpoint::save(std::string& out) const {
    util::put_u64(out, populations.size());
    for (const Population& pop : populations) pop.save(out);
    outcome.save(out);
    util::put_u64(out, next_generation);
}

MultiPopulationCheckpoint MultiPopulationCheckpoint::load(
    util::ByteReader& in, const PopulationOptions& options) {
    MultiPopulationCheckpoint checkpoint;
    // Each population is at least its size plus generation, stagnation,
    // best-seen and the evaluated flag.
    const std::uint64_t count = in.get_count(4 * 8 + 1);
    if (count == 0) {
        throw std::runtime_error(
            "MultiPopulationCheckpoint::load: implausible population count " +
            std::to_string(count));
    }
    checkpoint.populations.reserve(count);
    for (std::uint64_t p = 0; p < count; ++p) {
        checkpoint.populations.push_back(Population::load(in, options));
    }
    checkpoint.outcome = MultiPopulationOutcome::load(in);
    checkpoint.next_generation = static_cast<std::size_t>(in.get_u64());
    return checkpoint;
}

MultiPopulationOutcome MultiPopulationGa::run(const FitnessFn& fitness,
                                              std::vector<TestChromosome> seeds,
                                              util::Rng& rng) const {
    return run(as_batch(fitness), std::move(seeds), rng);
}

MultiPopulationOutcome MultiPopulationGa::run(const BatchFitnessFn& fitness,
                                              std::vector<TestChromosome> seeds,
                                              util::Rng& rng) const {
    return run(fitness, std::move(seeds), rng, MultiPopulationResume{});
}

MultiPopulationOutcome MultiPopulationGa::run(
    const BatchFitnessFn& fitness, std::vector<TestChromosome> seeds,
    util::Rng& rng, const MultiPopulationResume& hooks) const {
    assert(options_.populations >= 1);

    std::vector<Population> populations;
    MultiPopulationOutcome outcome;
    std::size_t start_generation = 0;

    const auto consider = [&outcome](const Individual& candidate) {
        if (candidate.fitness > outcome.best_fitness) {
            outcome.best_fitness = candidate.fitness;
            outcome.best = candidate.chromosome;
        }
    };

    if (hooks.resume != nullptr) {
        // Continue exactly where the snapshot left off; the initial
        // evaluation already happened in the original run.
        populations = hooks.resume->populations;
        outcome = hooks.resume->outcome;
        start_generation = hooks.resume->next_generation;
    } else {
        // Deal seeds round-robin so every population starts from a
        // different mix of NN-suggested individuals.
        std::vector<std::vector<TestChromosome>> dealt(options_.populations);
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            dealt[i % options_.populations].push_back(std::move(seeds[i]));
        }

        populations.reserve(options_.populations);
        for (std::size_t p = 0; p < options_.populations; ++p) {
            populations.emplace_back(options_.population, std::move(dealt[p]),
                                     rng);
        }

        // Initial evaluation of every population.
        for (Population& pop : populations) {
            outcome.evaluations += pop.evaluate(fitness);
            consider(pop.best());
        }
    }

    for (std::size_t gen = start_generation; gen < options_.max_generations;
         ++gen) {
        if (outcome.best_fitness >= options_.target_fitness) {
            outcome.target_reached = true;
            break;
        }
        TELEM_SPAN("ga.generation");
        const util::LogContext log_ctx("gen=" + std::to_string(gen));
        if (util::telemetry::metrics_enabled()) {
            static auto& generations =
                util::telemetry::Registry::instance().counter(
                    "cichar_ga_generations_total");
            generations.add();
        }
        for (Population& pop : populations) {
            outcome.evaluations += pop.step(fitness, rng);
            consider(pop.best());

            if (pop.stagnation() >= options_.stagnation_limit &&
                (options_.max_restarts == 0 ||
                 outcome.restarts < options_.max_restarts)) {
                pop.restart(rng);
                outcome.evaluations += pop.evaluate(fitness);
                consider(pop.best());
                ++outcome.restarts;
            }
        }
        ++outcome.generations_run;
        outcome.best_history.push_back(outcome.best_fitness);
        // Migration is intentionally after the history snapshot so the
        // curve reflects evolution, not copying.
        if (options_.migration_interval != 0 &&
            (gen + 1) % options_.migration_interval == 0) {
            // The Population API is deliberately small; migration is
            // modeled by seeding a mini-restart population holding the
            // global best plus this population's best. Both migrants
            // carry their already-measured fitness so the (possibly
            // expensive, live-ATE) fitness callback only sees the fresh
            // random filler individuals.
            for (Population& pop : populations) {
                const double pop_best_fitness = pop.best().fitness;
                std::vector<TestChromosome> migration_seed{
                    outcome.best, pop.best().chromosome};
                Population migrated(options_.population,
                                    std::move(migration_seed), rng);
                migrated.preload(0, outcome.best_fitness);
                migrated.preload(1, pop_best_fitness);
                outcome.evaluations += migrated.evaluate(fitness);
                consider(migrated.best());
                pop = std::move(migrated);
            }
        }
        if (hooks.observer) hooks.observer(gen + 1, outcome);
        if (hooks.on_generation) {
            MultiPopulationCheckpoint checkpoint;
            checkpoint.populations = populations;
            checkpoint.outcome = outcome;
            checkpoint.next_generation = gen + 1;
            if (!hooks.on_generation(checkpoint)) return outcome;
        }
    }
    if (outcome.best_fitness >= options_.target_fitness) {
        outcome.target_reached = true;
    }
    return outcome;
}

}  // namespace cichar::ga
