// Device-under-test interface: the only thing the ATE layer sees. A DUT
// answers pass/fail for a test applied at one parameter setting, runs
// functional patterns, and can be idled between measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "testgen/test.hpp"
#include "util/binio.hpp"

namespace cichar::device {

/// Characterization parameters the modeled chip supports.
enum class ParameterKind : std::uint8_t {
    kDataValidTime,  ///< T_DQ strobe (ns); pass region below the trip point
    kMaxFrequency,   ///< clock (MHz); pass region below the trip point
    kMinVdd,         ///< supply (V); pass region *above* the trip point
};

[[nodiscard]] const char* to_string(ParameterKind kind) noexcept;

/// Outcome of a functional pattern execution.
struct FunctionalResult {
    std::size_t reads = 0;
    std::size_t miscompares = 0;
    /// Cycle index of the first failing read, or npos when clean.
    std::size_t first_fail_cycle = npos;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    [[nodiscard]] bool pass() const noexcept { return miscompares == 0; }
};

/// Abstract DUT. Implementations may be noisy and history-dependent
/// (self-heating): repeated identical calls may disagree near the trip
/// point, exactly like silicon on a tester.
class DeviceUnderTest {
public:
    virtual ~DeviceUnderTest() = default;

    /// Applies `test` with `parameter` forced to `setting`; true = pass.
    [[nodiscard]] virtual bool passes(const testgen::Test& test,
                                      ParameterKind parameter,
                                      double setting) = 0;

    /// Runs the pattern functionally at the test's own conditions.
    [[nodiscard]] virtual FunctionalResult run_functional(
        const testgen::Test& test) = 0;

    /// Idles the device (cools it down, resets measurement history).
    virtual void settle() = 0;

    /// Creates an independent cold copy of this device — same die, model,
    /// and faults, but fresh measurement history (no heat, clean array)
    /// and its own noise stream seeded from `noise_seed`. Semantically a
    /// virtual re-insertion of the same physical die on another site, so
    /// parallel hunts can measure replicas concurrently without sharing
    /// mutable state. The worst-case hunt measures every GA fitness
    /// evaluation on such replicas, so every device must support it.
    [[nodiscard]] virtual std::unique_ptr<DeviceUnderTest> clone_cold(
        std::uint64_t noise_seed) const = 0;

    /// Re-arms an existing replica in place so it is indistinguishable
    /// from a fresh `clone_cold(noise_seed)` of the same die: the noise
    /// stream is re-seeded, heat/application history is cleared, and the
    /// array contents are wiped — but the allocated timing-model/process
    /// state is reused instead of re-created. The contract is exact:
    /// every observable (measurement sequence, save_state blob) must
    /// equal a cold clone's, which is what lets warm replica slabs
    /// recycle devices across fitness slots without perturbing the
    /// byte-identity guarantees. Returns false when the implementation
    /// cannot reset in place (callers fall back to clone_cold).
    [[nodiscard]] virtual bool reset_warm(std::uint64_t noise_seed) {
        (void)noise_seed;
        return false;
    }

    /// Serializes the device's *mutable* measurement state (noise stream
    /// position, heat, array contents, ...) for crash-safe checkpoints.
    /// The die, model, and options are construction inputs the caller
    /// re-creates; only history needs to travel. Returns false when the
    /// implementation cannot snapshot itself (checkpointing must then
    /// restart the device cold).
    [[nodiscard]] virtual bool save_state(std::string& out) const {
        (void)out;
        return false;
    }

    /// Restores state written by save_state() on an identically
    /// constructed device. Returns false when unsupported; throws
    /// std::runtime_error on a malformed blob.
    [[nodiscard]] virtual bool load_state(util::ByteReader& in) {
        (void)in;
        return false;
    }
};

}  // namespace cichar::device
