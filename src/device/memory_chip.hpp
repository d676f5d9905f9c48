// MemoryTestChip: the behavioral stand-in for the paper's 140nm memory
// test chip. Combines
//   * a functional memory-array simulation with injectable faults,
//   * the TimingModel parametric response surface,
//   * per-measurement Gaussian noise and optional self-heating drift
//     (the "specification parameter changes over time due to device
//     heating" the paper warns about).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "device/dut.hpp"
#include "device/faults.hpp"
#include "device/process.hpp"
#include "device/timing_model.hpp"
#include "testgen/address_map.hpp"
#include "util/rng.hpp"

namespace cichar::device {

/// Behavioral options of the chip model.
struct MemoryChipOptions {
    double noise_sigma_ns = 0.05;    ///< T_DQ measurement repeatability
    double noise_sigma_mhz = 0.15;   ///< Fmax repeatability
    double noise_sigma_v = 0.002;    ///< Vmin repeatability
    bool enable_drift = false;       ///< self-heating drift of T_DQ
    double drift_max_ns = 0.6;       ///< full-heat T_DQ reduction
    double drift_heat_per_kcycle = 0.08;  ///< heat added per 1000 cycles
    double drift_cooling = 0.35;     ///< heat retained by settle()
    double functional_limit_ns = 19.5;  ///< T_DQ below this corrupts reads
    std::uint64_t seed = 42;         ///< noise stream seed
};

/// Concrete DUT. One instance == one die on the tester.
class MemoryTestChip final : public DeviceUnderTest {
public:
    explicit MemoryTestChip(DieParameters die = {},
                            MemoryChipOptions options = {},
                            TimingModel model = {},
                            FaultSet faults = {});

    [[nodiscard]] const DieParameters& die() const noexcept { return die_; }
    [[nodiscard]] const TimingModel& timing_model() const noexcept {
        return model_;
    }
    [[nodiscard]] const MemoryChipOptions& options() const noexcept {
        return options_;
    }

    // --- DeviceUnderTest -------------------------------------------------
    [[nodiscard]] bool passes(const testgen::Test& test, ParameterKind parameter,
                              double setting) override;
    [[nodiscard]] FunctionalResult run_functional(
        const testgen::Test& test) override;
    void settle() override;
    [[nodiscard]] std::unique_ptr<DeviceUnderTest> clone_cold(
        std::uint64_t noise_seed) const override;
    [[nodiscard]] bool reset_warm(std::uint64_t noise_seed) override;
    [[nodiscard]] bool save_state(std::string& out) const override;
    [[nodiscard]] bool load_state(util::ByteReader& in) override;

    // --- Characterization oracle (white-box access for tests/benches) ----
    /// Noiseless, drift-free ground-truth parameter value. The search and
    /// CI flows never call this; tests use it to validate convergence.
    [[nodiscard]] double true_parameter(const testgen::Test& test,
                                        ParameterKind parameter) const;

    /// Current self-heating state in [0, 1].
    [[nodiscard]] double heat() const noexcept { return heat_; }

    /// Number of pattern applications so far.
    [[nodiscard]] std::uint64_t applications() const noexcept {
        return applications_;
    }

private:
    /// Noiseless model response to a test with pattern features
    /// `features` (the pattern's folded statistics, finalized).
    [[nodiscard]] double model_value(const testgen::FeatureVector& features,
                                     const testgen::Test& test,
                                     ParameterKind parameter) const;
    /// Measured (noisy, drift-affected) parameter value and bookkeeping.
    [[nodiscard]] double measure(const testgen::FeatureVector& features,
                                 const testgen::Test& test,
                                 ParameterKind parameter);
    void absorb_heat(const testgen::TestPattern& pattern);

    DieParameters die_;
    MemoryChipOptions options_;
    TimingModel model_;
    FaultSet faults_;
    util::Rng noise_;
    double heat_ = 0.0;
    std::uint64_t applications_ = 0;
    std::vector<std::uint16_t> array_;   ///< faulty storage
    std::vector<std::uint16_t> golden_;  ///< fault-free reference
    /// True once a functional run (or state restore) may have written the
    /// arrays; reset_warm only pays the wipe when set, so parametric-only
    /// replicas recycle in O(1).
    bool array_dirty_ = false;
};

}  // namespace cichar::device
