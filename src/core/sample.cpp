#include "core/sample.hpp"

#include <stdexcept>

namespace cichar::core {

std::vector<double> SampleResult::per_die_worst() const {
    std::vector<double> out;
    out.reserve(dies.size());
    for (const DieCampaign& die : dies) {
        if (die.dsv.found_count() > 0) {
            out.push_back(die.dsv.worst().trip_point);
        }
    }
    return out;
}

const DieCampaign& SampleResult::worst_die() const {
    const DieCampaign* worst = nullptr;
    for (const DieCampaign& die : dies) {
        if (die.dsv.found_count() == 0) continue;
        if (worst == nullptr ||
            die.dsv.worst().wcr > worst->dsv.worst().wcr) {
            worst = &die;
        }
    }
    if (worst == nullptr) {
        throw std::logic_error("SampleResult::worst_die(): no results");
    }
    return *worst;
}

DesignSpecVariation SampleResult::pooled() const {
    DesignSpecVariation all;
    for (const DieCampaign& die : dies) {
        for (const TripPointRecord& r : die.dsv.records()) {
            all.add(r);
        }
    }
    return all;
}

std::uint64_t SampleResult::total_measurements() const {
    std::uint64_t total = 0;
    for (const DieCampaign& die : dies) total += die.measurements;
    return total;
}

SampleResult SampleCharacterizer::run(const ate::Parameter& parameter,
                                      std::span<const testgen::Test> tests,
                                      util::Rng& rng) const {
    const device::ProcessVariation process(options_.process);
    const std::vector<device::DieParameters> wafer =
        process.sample_wafer(options_.dies, rng);

    // Expand the test list over the environmental grid (every combination
    // of the environmental variables, per the paper).
    std::vector<testgen::Test> expanded;
    if (options_.environment_grid.empty()) {
        expanded.assign(tests.begin(), tests.end());
    } else {
        expanded.reserve(tests.size() * options_.environment_grid.size());
        for (const auto& [vdd, temperature] : options_.environment_grid) {
            for (const testgen::Test& test : tests) {
                testgen::Test t = test;
                // Appended piecewise: `"@" + std::to_string(...)` trips
                // GCC 12's -Wrestrict false positive in string::insert.
                t.name += '@';
                t.name += std::to_string(vdd);
                t.name += 'V';
                t.conditions.vdd_volts = vdd;
                t.conditions.temperature_c = temperature;
                expanded.push_back(std::move(t));
            }
        }
    }

    SampleResult result;
    result.dies.reserve(wafer.size());
    const MultiTripCharacterizer characterizer(options_.trip);
    for (const device::DieParameters& die : wafer) {
        device::MemoryChipOptions chip_options = options_.chip;
        chip_options.seed = rng();  // independent noise stream per die
        device::MemoryTestChip chip(die, chip_options);
        ate::Tester tester(chip, options_.tester);

        DieCampaign campaign;
        campaign.die = die;
        campaign.dsv = characterizer.characterize(tester, parameter, expanded);
        campaign.measurements = tester.log().total().applications;
        result.dies.push_back(std::move(campaign));
    }
    return result;
}

}  // namespace cichar::core
