#include "device/memory_chip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "testgen/features.hpp"

namespace cichar::device {

namespace {

const char* kind_names[] = {"T_DQ", "Fmax", "Vmin"};

}  // namespace

const char* to_string(ParameterKind kind) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    return i < 3 ? kind_names[i] : "?";
}

MemoryTestChip::MemoryTestChip(DieParameters die, MemoryChipOptions options,
                               TimingModel model, FaultSet faults)
    : die_(die),
      options_(options),
      model_(model),
      faults_(std::move(faults)),
      noise_(options.seed),
      array_(testgen::AddressMap::kWords, 0),
      golden_(testgen::AddressMap::kWords, 0) {}

double MemoryTestChip::true_parameter(const testgen::Test& test,
                                      ParameterKind parameter) const {
    return model_value(testgen::extract_pattern_features(test.pattern), test,
                       parameter);
}

double MemoryTestChip::model_value(const testgen::FeatureVector& features,
                                   const testgen::Test& test,
                                   ParameterKind parameter) const {
    switch (parameter) {
        case ParameterKind::kDataValidTime:
            return model_.tdq_ns(features, test.conditions, die_);
        case ParameterKind::kMaxFrequency:
            return model_.fmax_mhz(features, test.conditions, die_);
        case ParameterKind::kMinVdd:
            return model_.vmin_v(features, test.conditions, die_);
    }
    return 0.0;
}

void MemoryTestChip::absorb_heat(const testgen::TestPattern& pattern) {
    if (!options_.enable_drift) return;
    const double kilocycles = static_cast<double>(pattern.size()) / 1000.0;
    heat_ = std::min(1.0, heat_ + options_.drift_heat_per_kcycle * kilocycles);
}

double MemoryTestChip::measure(const testgen::FeatureVector& features,
                               const testgen::Test& test,
                               ParameterKind parameter) {
    ++applications_;
    const double truth = model_value(features, test, parameter);
    double value = truth;
    switch (parameter) {
        case ParameterKind::kDataValidTime:
            value -= options_.drift_max_ns * heat_;  // heating shrinks margin
            value += noise_.normal(0.0, options_.noise_sigma_ns);
            break;
        case ParameterKind::kMaxFrequency:
            value *= 1.0 - 0.01 * heat_;
            value += noise_.normal(0.0, options_.noise_sigma_mhz);
            break;
        case ParameterKind::kMinVdd:
            value += 0.01 * heat_;  // hot silicon needs more supply
            value += noise_.normal(0.0, options_.noise_sigma_v);
            break;
    }
    absorb_heat(test.pattern);
    return value;
}

bool MemoryTestChip::passes(const testgen::Test& test, ParameterKind parameter,
                            double setting) {
    const double value =
        measure(testgen::extract_pattern_features(test.pattern), test, parameter);
    switch (parameter) {
        case ParameterKind::kDataValidTime:
        case ParameterKind::kMaxFrequency:
            // Pass region below the trip point (paper's 100 MHz pass /
            // 110 MHz fail example; eq. 3 direction).
            return setting <= value;
        case ParameterKind::kMinVdd:
            // Pass region above the trip point (eq. 4 direction).
            return setting >= value;
    }
    return false;
}

FunctionalResult MemoryTestChip::run_functional(const testgen::Test& test) {
    FunctionalResult result;

    // Parametric stress decides whether read data is valid in time. Noisy
    // like any measurement, but without strobe override: the device runs
    // at its own conditions.
    const testgen::FeatureVector features =
        testgen::extract_pattern_features(test.pattern);
    const double tdq = measure(features, test, ParameterKind::kDataValidTime);
    const bool timing_corrupts = tdq < options_.functional_limit_ns;
    const bool supply_collapses =
        test.conditions.vdd_volts <
        model_.vmin_v(features, test.conditions, die_);

    array_dirty_ = true;

    bool prev_was_write = false;
    std::uint32_t prev_address = 0;
    std::size_t cycle_index = 0;
    // Retention faults need write timestamps; track them only for the
    // (few) faulty addresses.
    std::unordered_map<std::uint32_t, std::uint64_t> retention_write_cycle;
    for (const testgen::VectorCycle& vc : test.pattern.cycles()) {
        const std::size_t cycle = cycle_index++;
        if (!vc.chip_enable || vc.op == testgen::BusOp::kNop) {
            prev_was_write = false;
            continue;
        }
        if (vc.op == testgen::BusOp::kWrite) {
            const std::uint16_t previous = array_[vc.address];
            array_[vc.address] = faults_.on_write(vc.address, previous, vc.data);
            golden_[vc.address] = vc.data;
            for (const std::uint32_t victim : faults_.victims_of(vc.address)) {
                array_[victim] = faults_.couple(vc.address, victim, array_[victim]);
            }
            if (faults_.has_retention(vc.address)) {
                retention_write_cycle[vc.address] = cycle;
            }
            prev_was_write = true;
            prev_address = vc.address;
            continue;
        }
        // Read cycle.
        ++result.reads;
        if (faults_.has_retention(vc.address)) {
            const auto it = retention_write_cycle.find(vc.address);
            if (it != retention_write_cycle.end()) {
                // Decay is destructive: a leaked bit stays leaked until
                // rewritten.
                array_[vc.address] = faults_.decay(
                    vc.address, array_[vc.address], cycle - it->second);
            }
        }
        std::uint16_t observed = faults_.on_read(vc.address, array_[vc.address]);
        // Stress-induced corruption: when the valid window has collapsed,
        // a read that immediately follows a bus turnaround or an address
        // change latches stale data.
        const bool turnaround = prev_was_write || vc.address != prev_address;
        if (supply_collapses || (timing_corrupts && turnaround)) {
            observed = static_cast<std::uint16_t>(~observed);
        }
        if (observed != golden_[vc.address]) {
            ++result.miscompares;
            if (result.first_fail_cycle == FunctionalResult::npos) {
                result.first_fail_cycle = cycle;
            }
        }
        prev_was_write = false;
        prev_address = vc.address;
    }
    return result;
}

void MemoryTestChip::settle() {
    heat_ *= options_.drift_cooling;
    if (heat_ < 1e-6) heat_ = 0.0;
}

bool MemoryTestChip::save_state(std::string& out) const {
    util::put_rng(out, noise_);
    util::put_double(out, heat_);
    util::put_u64(out, applications_);
    // Both arrays are fixed-size; store the word count anyway so a stale
    // blob from a different geometry is rejected instead of mis-read.
    util::put_u64(out, array_.size());
    for (const std::uint16_t word : array_) {
        util::put_u32(out, word);
    }
    for (const std::uint16_t word : golden_) {
        util::put_u32(out, word);
    }
    return true;
}

bool MemoryTestChip::load_state(util::ByteReader& in) {
    util::Rng noise = in.get_rng();
    const double heat = in.get_double();
    const std::uint64_t applications = in.get_u64();
    const std::uint64_t words = in.get_u64();
    if (words != array_.size()) {
        throw std::runtime_error("MemoryTestChip::load_state: word count " +
                                 std::to_string(words) + " != " +
                                 std::to_string(array_.size()));
    }
    std::vector<std::uint16_t> array(array_.size());
    std::vector<std::uint16_t> golden(golden_.size());
    for (std::uint16_t& word : array) {
        word = static_cast<std::uint16_t>(in.get_u32());
    }
    for (std::uint16_t& word : golden) {
        word = static_cast<std::uint16_t>(in.get_u32());
    }
    noise_ = noise;
    heat_ = heat;
    applications_ = applications;
    array_ = std::move(array);
    golden_ = std::move(golden);
    // The restored blob may carry nonzero words; a later reset_warm must
    // not assume the arrays are still clean.
    array_dirty_ = true;
    return true;
}

std::unique_ptr<DeviceUnderTest> MemoryTestChip::clone_cold(
    std::uint64_t noise_seed) const {
    MemoryChipOptions options = options_;
    options.seed = noise_seed;
    return std::make_unique<MemoryTestChip>(die_, options, model_, faults_);
}

bool MemoryTestChip::reset_warm(std::uint64_t noise_seed) {
    options_.seed = noise_seed;
    noise_ = util::Rng(noise_seed);
    heat_ = 0.0;
    applications_ = 0;
    if (array_dirty_) {
        std::fill(array_.begin(), array_.end(), std::uint16_t{0});
        std::fill(golden_.begin(), golden_.end(), std::uint16_t{0});
        array_dirty_ = false;
    }
    return true;
}

}  // namespace cichar::device
