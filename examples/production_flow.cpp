// The whole industrial loop the paper situates itself in:
//
//   characterization phase                      manufacturing phase
//   ┌────────────────────────────────────┐     ┌─────────────────────────┐
//   │ sample of dies -> multi-trip DSV   │     │ production test program │
//   │ NN+GA worst-case hunt              │ --> │ (functional + worst-case│
//   │ spec proposal with guard band      │     │  screens, first-fail    │
//   └────────────────────────────────────┘     │  binning, yield)        │
//                                              └─────────────────────────┘
//
// Build & run:  ./build/examples/production_flow
#include <cstdio>

#include "core/campaign.hpp"
#include "core/production.hpp"
#include "core/sample.hpp"
#include "device/memory_chip.hpp"
#include "util/rng.hpp"

int main() {
    using namespace cichar;
    util::Rng rng(4711);
    const ate::Parameter t_dq = ate::Parameter::data_valid_time();

    // ---- 1. Characterize a die sample (multi-trip, eq. 1) --------------
    std::printf("=== 1. sample characterization (8 dies x 15 tests) ===\n");
    testgen::RandomGeneratorOptions gen_opts;
    gen_opts.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const testgen::RandomTestGenerator generator(gen_opts);
    std::vector<testgen::Test> tests;
    for (int i = 0; i < 15; ++i) {
        tests.push_back(generator.random_test(rng, std::string("t").append(std::to_string(i))));
    }
    core::SampleOptions sample_opts;
    sample_opts.dies = 8;
    const core::SampleCharacterizer sampler(sample_opts);
    const core::SampleResult sample = sampler.run(t_dq, tests, rng);
    std::printf("per-die worst T_DQ:");
    for (const double w : sample.per_die_worst()) std::printf(" %.2f", w);
    std::printf(" ns\n");

    // ---- 2. Hunt the true worst case on the worst die ------------------
    std::printf("\n=== 2. NN+GA worst-case hunt on the worst die ===\n");
    device::MemoryTestChip worst_die(sample.worst_die().die);
    ate::Tester tester(worst_die);
    core::CharacterizerOptions chr_opts;
    chr_opts.generator = gen_opts;
    const core::DeviceCharacterizer characterizer(tester, t_dq, chr_opts);
    const core::LearnResult learned = characterizer.learn(rng);
    const core::WorstCaseReport hunt = characterizer.optimize(learned.model, rng);
    std::printf("worst case: T_DQ %.2f ns, WCR %.3f (%s)\n",
                hunt.worst_record.trip_point, hunt.outcome.best_fitness,
                ga::to_string(hunt.worst_record.wcr_class));

    // ---- 3. Propose the production spec --------------------------------
    std::printf("\n=== 3. specification proposal ===\n");
    core::DesignSpecVariation pooled = sample.pooled();
    if (hunt.worst_record.found) pooled.add(hunt.worst_record);
    const core::SpecProposal proposal = core::propose_spec(t_dq, pooled, 0.03);
    std::printf("%s", proposal.render().c_str());

    // ---- 4. Compile and run the production test program ----------------
    std::printf("=== 4. production screening (fresh lot of 20 dies) ===\n");
    const ate::ProductionTestProgram program = core::build_production_program(
        hunt.database, gen_opts, t_dq, proposal.proposed_limit);
    std::printf("program: %zu steps (functional march + %zu worst-case "
                "screens @ %.2f ns)\n",
                program.step_count(), program.step_count() - 1,
                proposal.proposed_limit);

    const device::ProcessVariation process;
    ate::BinningSummary bins;
    bins.fails_per_step.assign(program.step_count(), 0);
    for (int d = 0; d < 20; ++d) {
        device::MemoryChipOptions chip_opts;
        chip_opts.seed = rng();
        device::MemoryTestChip die(process.sample(rng), chip_opts);
        ate::Tester lot_tester(die);
        const ate::ProductionOutcome outcome = program.run(lot_tester);
        ++bins.devices;
        if (outcome.pass) {
            ++bins.passed;
        } else {
            ++bins.fails_per_step[outcome.failed_step];
        }
    }
    std::printf("yield: %.0f %% (%zu/%zu)\n", 100.0 * bins.yield(),
                bins.passed, bins.devices);
    for (std::size_t s = 0; s < bins.fails_per_step.size(); ++s) {
        if (bins.fails_per_step[s] == 0) continue;
        std::printf("  bin %zu (%s): %zu devices\n", s,
                    program.step(s).name.c_str(), bins.fails_per_step[s]);
    }
    std::printf("\nnote: production testing stops on first fail and bins the "
                "device — the paper's opening contrast to characterization's "
                "closed-loop trip point search.\n");
    return 0;
}
