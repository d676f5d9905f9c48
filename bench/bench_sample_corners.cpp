// Extension bench: device-sample and process-corner characterization
// (paper section 1: "select a statistically significant sample of devices,
// and repeat the test for every combination of two or more environmental
// variables"). Sweeps a wafer sample and the classic Vdd x temperature
// corner matrix, then derives the sample-level specification proposal.
#include "bench_common.hpp"

#include "core/sample.hpp"
#include "util/ascii.hpp"
#include "util/statistics.hpp"

using namespace cichar;

int main() {
    constexpr std::uint64_t kSeed = 2005;
    bench::header("Extension", "sample + environmental-corner characterization",
                  kSeed);

    const ate::Parameter param = ate::Parameter::data_valid_time();
    const testgen::RandomTestGenerator generator(bench::nominal_generator());
    util::Rng rng(kSeed);
    std::vector<testgen::Test> tests;
    for (int i = 0; i < 10; ++i) {
        tests.push_back(generator.random_test(rng, std::string("t").append(std::to_string(i))));
    }

    bench::section("wafer sample (12 dies, nominal conditions)");
    core::SampleOptions sample_opts;
    sample_opts.dies = 12;
    const core::SampleCharacterizer sampler(sample_opts);
    const core::SampleResult nominal = sampler.run(param, tests, rng);
    {
        const auto worsts = nominal.per_die_worst();
        const util::Summary s = util::summarize(worsts);
        util::TextTable table({"die", "window (ns)", "sensitivity",
                               "worst T_DQ (ns)", "worst WCR"});
        for (std::size_t d = 0; d < nominal.dies.size(); ++d) {
            const core::DieCampaign& die = nominal.dies[d];
            table.add_row({std::to_string(d),
                           util::fixed(die.die.window_ns, 2),
                           util::fixed(die.die.sensitivity_scale, 3),
                           util::fixed(die.dsv.worst().trip_point, 2),
                           util::fixed(die.dsv.worst().wcr, 3)});
        }
        std::printf("%s", table.render().c_str());
        std::printf("per-die worst T_DQ: min %.2f / median %.2f / max %.2f ns "
                    "(die-to-die spread %.2f ns)\n",
                    s.min, s.median, s.max, s.max - s.min);
    }

    bench::section("environmental corner matrix on a fresh sample");
    core::SampleOptions corner_opts;
    corner_opts.dies = 4;
    corner_opts.environment_grid = {
        {1.6, 85.0},   // low supply, hot  (worst)
        {1.6, -40.0},  // low supply, cold
        {2.0, 85.0},   // high supply, hot
        {2.0, -40.0},  // high supply, cold (best)
    };
    const core::SampleCharacterizer corner_sampler(corner_opts);
    const core::SampleResult corners = corner_sampler.run(param, tests, rng);
    {
        // Aggregate worst trip per environment across dies.
        util::TextTable table({"corner", "worst T_DQ (ns)", "worst WCR"});
        for (const auto& [vdd, temp] : corner_opts.environment_grid) {
            double worst_trip = 1e9;
            double worst_wcr = 0.0;
            const std::string tag = std::string("@").append(std::to_string(vdd)) + "V";
            for (const core::DieCampaign& die : corners.dies) {
                for (const core::TripPointRecord& r : die.dsv.records()) {
                    if (!r.found) continue;
                    if (r.test_name.find(tag) == std::string::npos) continue;
                    if (r.trip_point < worst_trip) worst_trip = r.trip_point;
                    if (r.wcr > worst_wcr) worst_wcr = r.wcr;
                }
            }
            table.add_row({util::fixed(vdd, 1) + " V / " +
                               util::fixed(temp, 0) + " C",
                           util::fixed(worst_trip, 2),
                           util::fixed(worst_wcr, 3)});
        }
        std::printf("%s", table.render().c_str());
    }

    bench::section("sample-level specification proposal");
    core::DesignSpecVariation pooled = nominal.pooled();
    for (const core::DieCampaign& die : corners.dies) {
        for (const core::TripPointRecord& r : die.dsv.records()) pooled.add(r);
    }
    const core::SpecProposal proposal = core::propose_spec(param, pooled, 0.03);
    std::printf("%s", proposal.render().c_str());

    std::printf("total measurements: sample %llu + corners %llu\n",
                static_cast<unsigned long long>(nominal.total_measurements()),
                static_cast<unsigned long long>(corners.total_measurements()));
    std::printf("\npaper context: characterization repeats tests over a "
                "device sample and every combination of environmental "
                "variables; the worst corner (low Vdd, hot) dominates the "
                "final specification.\n");
    return 0;
}
