// Figure 3 / Section 4 reproduction: the search-until-trip-point
// algorithm. The first test pays for a full characterization-range search
// (RTP, eq. 2); every later test searches only +-SF(IT) around RTP
// (eqs. 3/4). This bench measures the per-trip-point cost of both
// strategies over N random tests and reports the savings and accuracy for
// several SF resolutions and growth schedules.
#include "bench_common.hpp"

#include <cmath>

#include "core/multi_trip.hpp"
#include "util/ascii.hpp"

using namespace cichar;

namespace {

struct Strategy {
    const char* name;
    double search_factor;       // <= 0: full-range successive approximation
    ate::SearchFactorGrowth growth = ate::SearchFactorGrowth::kTriangular;
};

struct Outcome {
    double measurements_per_trip = 0.0;
    double max_error_ns = 0.0;
    std::size_t total = 0;
};

Outcome run_strategy(const Strategy& strategy,
                     const std::vector<testgen::Test>& tests) {
    // Fresh die per strategy so costs are comparable.
    device::MemoryChipOptions chip_opts;
    chip_opts.noise_sigma_ns = 0.0;  // accuracy vs ground truth
    bench::Rig rig(chip_opts);
    const ate::Parameter param = ate::Parameter::data_valid_time();

    Outcome outcome;
    std::size_t total = 0;
    if (strategy.search_factor <= 0.0) {
        const ate::SuccessiveApproximation full;
        for (const testgen::Test& test : tests) {
            const ate::SearchResult r =
                full.find(rig.tester.oracle(test, param), param);
            total += r.measurements;
            const double truth = rig.chip.true_parameter(
                test, device::ParameterKind::kDataValidTime);
            outcome.max_error_ns =
                std::max(outcome.max_error_ns, std::abs(r.trip_point - truth));
        }
    } else {
        core::MultiTripOptions opts;
        opts.follow.search_factor = strategy.search_factor;
        opts.follow.growth = strategy.growth;
        core::TripSession session(rig.tester, param, opts);
        for (const testgen::Test& test : tests) {
            const core::TripPointRecord r = session.measure(test);
            total += r.measurements;
            const double truth = rig.chip.true_parameter(
                test, device::ParameterKind::kDataValidTime);
            if (r.found) {
                outcome.max_error_ns = std::max(
                    outcome.max_error_ns, std::abs(r.trip_point - truth));
            }
        }
    }
    outcome.total = total;
    outcome.measurements_per_trip =
        static_cast<double>(total) / static_cast<double>(tests.size());
    return outcome;
}

}  // namespace

int main() {
    constexpr std::uint64_t kSeed = 2005;
    bench::header("Figure 3",
                  "search until trip point: CR vs SF(IT) measurement cost",
                  kSeed);

    const testgen::RandomTestGenerator generator(bench::nominal_generator());
    util::Rng rng(kSeed);
    constexpr std::size_t kTests = 200;
    std::vector<testgen::Test> tests;
    tests.reserve(kTests);
    for (std::size_t i = 0; i < kTests; ++i) {
        tests.push_back(generator.random_test(rng, std::string("t").append(std::to_string(i))));
    }

    const ate::Parameter param = ate::Parameter::data_valid_time();
    std::printf("parameter: %s, CR = %.0f ns, resolution %.1f ns, N = %zu "
                "random tests\n",
                param.name.c_str(), param.characterization_range(),
                param.resolution, kTests);

    const Strategy strategies[] = {
        {"full-range succ. approx. (conventional)", -1.0},
        {"until-trip SF=0.1 triangular", 0.1},
        {"until-trip SF=0.2 triangular", 0.2},
        {"until-trip SF=0.5 triangular", 0.5},
        {"until-trip SF=0.2 linear", 0.2, ate::SearchFactorGrowth::kLinear},
    };

    bench::section("measurement cost per trip point");
    util::TextTable table({"strategy", "meas/trip", "total", "savings",
                           "max |error| (ns)"});
    double baseline = 0.0;
    for (const Strategy& strategy : strategies) {
        const Outcome outcome = run_strategy(strategy, tests);
        if (baseline == 0.0) baseline = outcome.measurements_per_trip;
        const double savings =
            100.0 * (1.0 - outcome.measurements_per_trip / baseline);
        table.add_row({strategy.name,
                       util::fixed(outcome.measurements_per_trip, 2),
                       std::to_string(outcome.total),
                       util::fixed(savings, 1) + " %",
                       util::fixed(outcome.max_error_ns, 3)});
    }
    std::printf("%s", table.render().c_str());

    std::printf("\npaper: CR(IT) >> SF(IT), so repeating the full generous "
                "range for every test would cause a very lengthy process; "
                "searching from RTP keeps test time low with automatic "
                "convergence.\n");
    std::printf("measured: the follower cuts measurements per trip point "
                "substantially while matching the full search within the "
                "tester resolution.\n");
    return 0;
}
