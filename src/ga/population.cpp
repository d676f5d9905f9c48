#include "ga/population.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace cichar::ga {

BatchFitnessFn as_batch(const FitnessFn& fitness) {
    return [fitness](std::span<const TestChromosome> batch) {
        std::vector<double> values;
        values.reserve(batch.size());
        for (const TestChromosome& c : batch) values.push_back(fitness(c));
        return values;
    };
}

Population::Population(PopulationOptions options,
                       std::vector<TestChromosome> seeds, util::Rng& rng)
    : options_(options) {
    assert(options_.size >= 2);
    assert(options_.elite < options_.size);
    if (seeds.size() > options_.size) seeds.resize(options_.size);
    individuals_.reserve(options_.size);
    for (TestChromosome& seed : seeds) {
        individuals_.push_back(Individual{std::move(seed), 0.0, false});
    }
    while (individuals_.size() < options_.size) {
        individuals_.push_back(Individual{TestChromosome::random(rng), 0.0,
                                          false});
    }
}

std::size_t Population::evaluate(const FitnessFn& fitness) {
    std::size_t evaluations = 0;
    for (Individual& ind : individuals_) {
        if (ind.evaluated) continue;
        ind.fitness = fitness(ind.chromosome);
        ind.evaluated = true;
        ++evaluations;
        any_evaluated_ = true;
    }
    const double best_now = best().fitness;
    if (best_now > best_seen_ || generation_ == 0) best_seen_ = best_now;
    return evaluations;
}

std::size_t Population::evaluate(const BatchFitnessFn& fitness) {
    // Gather the unevaluated individuals in index order — the same order
    // the per-individual overload visits them — so a sequential batch
    // callback reproduces the legacy trajectory exactly.
    std::vector<std::size_t> pending;
    std::vector<TestChromosome> batch;
    for (std::size_t i = 0; i < individuals_.size(); ++i) {
        if (individuals_[i].evaluated) continue;
        pending.push_back(i);
        batch.push_back(individuals_[i].chromosome);
    }
    if (!pending.empty()) {
        const std::vector<double> values(
            fitness(std::span<const TestChromosome>(batch)));
        if (values.size() != pending.size()) {
            throw std::logic_error(
                "BatchFitnessFn returned wrong number of values");
        }
        for (std::size_t k = 0; k < pending.size(); ++k) {
            Individual& ind = individuals_[pending[k]];
            ind.fitness = values[k];
            ind.evaluated = true;
        }
        any_evaluated_ = true;
    }
    const double best_now = best().fitness;
    if (best_now > best_seen_ || generation_ == 0) best_seen_ = best_now;
    return pending.size();
}

void Population::preload(std::size_t i, double fitness) {
    if (i >= individuals_.size()) {
        throw std::out_of_range("Population::preload: index " +
                                std::to_string(i) + " >= size " +
                                std::to_string(individuals_.size()));
    }
    individuals_[i].fitness = fitness;
    individuals_[i].evaluated = true;
    any_evaluated_ = true;
}

void Population::save(std::string& out) const {
    util::put_u64(out, individuals_.size());
    for (const Individual& ind : individuals_) {
        ind.chromosome.save(out);
        util::put_double(out, ind.fitness);
        util::put_bool(out, ind.evaluated);
    }
    util::put_u64(out, generation_);
    util::put_u64(out, stagnation_);
    util::put_double(out, best_seen_);
    util::put_bool(out, any_evaluated_);
}

namespace {

/// Chromosome genes + pattern seed, fitness, evaluated flag.
constexpr std::size_t kSavedIndividualBytes =
    8 * (testgen::kSequenceGeneCount + kConditionGeneCount + 1) + 8 + 1;

}  // namespace

Population Population::load(util::ByteReader& in,
                            const PopulationOptions& options) {
    Population pop;
    pop.options_ = options;
    const std::uint64_t count = in.get_count(kSavedIndividualBytes);
    if (count < 2) {
        throw std::runtime_error("Population::load: implausible size " +
                                 std::to_string(count));
    }
    pop.individuals_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Individual ind;
        ind.chromosome = TestChromosome::load(in);
        ind.fitness = in.get_double();
        ind.evaluated = in.get_bool();
        pop.individuals_.push_back(std::move(ind));
    }
    pop.generation_ = static_cast<std::size_t>(in.get_u64());
    pop.stagnation_ = static_cast<std::size_t>(in.get_u64());
    pop.best_seen_ = in.get_double();
    pop.any_evaluated_ = in.get_bool();
    return pop;
}

const Individual& Population::best() const {
    if (!any_evaluated_) {
        throw std::logic_error("Population::best() before evaluation");
    }
    const auto it = std::max_element(
        individuals_.begin(), individuals_.end(),
        [](const Individual& a, const Individual& b) {
            if (a.evaluated != b.evaluated) return !a.evaluated;
            return a.fitness < b.fitness;
        });
    return *it;
}

const Individual& Population::tournament_pick(util::Rng& rng) const {
    const Individual* winner = nullptr;
    for (std::size_t t = 0; t < options_.tournament; ++t) {
        const Individual& candidate =
            individuals_[rng.index(individuals_.size())];
        if (winner == nullptr || candidate.fitness > winner->fitness) {
            winner = &candidate;
        }
    }
    return *winner;
}

template <typename Fitness>
std::size_t Population::step_impl(const Fitness& fitness, util::Rng& rng) {
    std::size_t evaluations = evaluate(fitness);

    // Elites survive unchanged.
    std::vector<std::size_t> order(individuals_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return individuals_[a].fitness > individuals_[b].fitness;
    });

    std::vector<Individual> next;
    next.reserve(individuals_.size());
    for (std::size_t e = 0; e < options_.elite; ++e) {
        next.push_back(individuals_[order[e]]);
    }
    while (next.size() < individuals_.size()) {
        TestChromosome child;
        if (rng.bernoulli(options_.operators.crossover_rate)) {
            child = crossover(tournament_pick(rng).chromosome,
                              tournament_pick(rng).chromosome, rng);
        } else {
            child = tournament_pick(rng).chromosome;
        }
        mutate(child, options_.operators, rng);
        next.push_back(Individual{std::move(child), 0.0, false});
    }
    individuals_ = std::move(next);
    ++generation_;

    evaluations += evaluate(fitness);
    const double best_now = best().fitness;
    if (best_now > best_seen_) {
        best_seen_ = best_now;
        stagnation_ = 0;
    } else {
        ++stagnation_;
    }
    return evaluations;
}

std::size_t Population::step(const FitnessFn& fitness, util::Rng& rng) {
    return step_impl(fitness, rng);
}

std::size_t Population::step(const BatchFitnessFn& fitness, util::Rng& rng) {
    return step_impl(fitness, rng);
}

void Population::restart(util::Rng& rng) {
    individuals_.clear();
    for (std::size_t i = 0; i < options_.size; ++i) {
        individuals_.push_back(Individual{TestChromosome::random(rng), 0.0,
                                          false});
    }
    stagnation_ = 0;
    best_seen_ = -std::numeric_limits<double>::infinity();
    any_evaluated_ = false;
}

}  // namespace cichar::ga
