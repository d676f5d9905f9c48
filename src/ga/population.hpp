// Single GA population with tournament selection, elitism, and the
// two-group genetic operators. Fitness evaluation is caller-provided
// (in the characterization flows it is a live ATE trip-point measurement,
// so individuals are evaluated exactly once and cached).
//
// Fitness comes in two shapes: the classic per-individual FitnessFn, and
// a BatchFitnessFn that receives every unevaluated chromosome of a
// generation at once. The batch form is what the worst-case hunt uses — the
// caller fans the batch out over a thread pool (with per-individual
// pre-forked RNG streams) and returns fitness values in batch order, so
// the evolution trajectory is independent of the worker count.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ga/chromosome.hpp"

namespace cichar::ga {

/// Fitness to MAXIMIZE (worst-case hunts feed WCR here).
using FitnessFn = std::function<double(const TestChromosome&)>;

/// Batch fitness: returns one value per chromosome, in input order. The
/// GA layer stays thread-free; any parallelism lives inside the callback.
using BatchFitnessFn =
    std::function<std::vector<double>(std::span<const TestChromosome>)>;

/// Adapts a per-individual fitness into the batch shape (sequential, in
/// batch order — byte-identical to the historical per-individual loop).
[[nodiscard]] BatchFitnessFn as_batch(const FitnessFn& fitness);

struct PopulationOptions {
    std::size_t size = 24;
    std::size_t elite = 2;          ///< individuals copied unchanged
    std::size_t tournament = 3;     ///< tournament selection size
    GeneticOperators operators;
};

/// One evaluated individual.
struct Individual {
    TestChromosome chromosome;
    double fitness = 0.0;
    bool evaluated = false;
};

class Population {
public:
    /// Fills up to `options.size` with random chromosomes when `seeds`
    /// has fewer entries; extra seeds are truncated.
    Population(PopulationOptions options,
               std::vector<TestChromosome> seeds, util::Rng& rng);

    [[nodiscard]] std::size_t size() const noexcept {
        return individuals_.size();
    }
    [[nodiscard]] const Individual& individual(std::size_t i) const noexcept {
        return individuals_[i];
    }
    [[nodiscard]] std::size_t generation() const noexcept { return generation_; }

    /// Evaluates any unevaluated individuals; returns evaluations done.
    std::size_t evaluate(const FitnessFn& fitness);
    /// Same, but hands all unevaluated chromosomes to `fitness` at once.
    std::size_t evaluate(const BatchFitnessFn& fitness);

    /// One generation: selection, crossover, mutation, elitism. The new
    /// offspring are evaluated. Returns evaluations done.
    std::size_t step(const FitnessFn& fitness, util::Rng& rng);
    std::size_t step(const BatchFitnessFn& fitness, util::Rng& rng);

    /// Marks individual `i` as already evaluated with a known fitness
    /// (e.g. a migrated elite whose trip point was measured in a previous
    /// population) so evaluate() will not re-measure it. Throws
    /// std::out_of_range when `i` is not a valid index.
    void preload(std::size_t i, double fitness);

    /// Best individual so far (requires at least one evaluation).
    [[nodiscard]] const Individual& best() const;

    /// Generations since the best fitness last improved.
    [[nodiscard]] std::size_t stagnation() const noexcept {
        return stagnation_;
    }

    /// Replaces everyone with fresh random individuals ("a brand new
    /// population"), resetting stagnation; the previous best is forgotten
    /// here (the multi-population driver remembers the global best).
    void restart(util::Rng& rng);

    /// Bit-exact snapshot of the dynamic state (individuals, fitness,
    /// generation/stagnation bookkeeping). Options are configuration and
    /// travel separately.
    void save(std::string& out) const;
    /// Rebuilds a population from a save() blob. Throws std::runtime_error
    /// on truncated/corrupt input.
    [[nodiscard]] static Population load(util::ByteReader& in,
                                         const PopulationOptions& options);

private:
    Population() = default;  // only for load()

    [[nodiscard]] const Individual& tournament_pick(util::Rng& rng) const;

    template <typename Fitness>
    std::size_t step_impl(const Fitness& fitness, util::Rng& rng);

    PopulationOptions options_;
    std::vector<Individual> individuals_;
    std::size_t generation_ = 0;
    std::size_t stagnation_ = 0;
    double best_seen_ = 0.0;
    bool any_evaluated_ = false;
};

}  // namespace cichar::ga
