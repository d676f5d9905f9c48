// Test stimulus representation: a TestPattern is a sequence of bus vector
// cycles (address, data, control signals), exactly what the paper's random
// test generator emits in 100-1000 cycle bursts per trip-point measurement.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "testgen/address_map.hpp"

namespace cichar::testgen {

class RandomTestGenerator;

/// Memory-bus operation of one vector cycle.
enum class BusOp : std::uint8_t { kNop = 0, kRead = 1, kWrite = 2 };

[[nodiscard]] const char* to_string(BusOp op) noexcept;

/// One tester vector: the state of the DUT pins for one clock cycle.
struct VectorCycle {
    std::uint32_t address = 0;
    std::uint16_t data = 0;        ///< write data (ignored for reads)
    BusOp op = BusOp::kNop;
    bool chip_enable = true;       ///< CE# asserted
    bool output_enable = false;    ///< OE# asserted (reads drive the bus)
    bool burst = false;            ///< cycle continues the previous burst

    [[nodiscard]] bool operator==(const VectorCycle&) const = default;
};

/// Running statistics of a pattern's cycles: the counters and
/// previous-cycle state of a single pass over the pattern, folded one
/// cycle at a time as the pattern is built. extract_pattern_features
/// turns them into the normalized pattern features in O(1).
struct PatternStats {
    double toggle_bits = 0.0;     ///< data bits flipped between writes
    double addr_bits = 0.0;       ///< address bits flipped between ops
    std::size_t write_pairs = 0;  ///< consecutive write pairs
    std::size_t op_pairs = 0;     ///< consecutive non-NOP op pairs
    std::size_t bank_conflicts = 0;
    std::size_t same_row = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t rw_switches = 0;
    std::size_t bursts = 0;
    std::size_t alternating_writes = 0;
    std::size_t control_changes = 0;

    std::uint32_t prev_addr = 0;
    std::uint16_t prev_write_data = 0;
    BusOp prev_op = BusOp::kNop;
    bool have_prev_cycle = false;
    bool have_prev_write = false;
    bool have_prev_op = false;
    bool prev_ce = true;
    bool prev_oe = false;

    [[nodiscard]] bool operator==(const PatternStats&) const = default;

    /// Folds the next cycle of the pattern into the statistics.
    void fold(const VectorCycle& vc) noexcept {
        if (have_prev_cycle &&
            (vc.chip_enable != prev_ce || vc.output_enable != prev_oe)) {
            ++control_changes;
        }
        prev_ce = vc.chip_enable;
        prev_oe = vc.output_enable;
        have_prev_cycle = true;

        if (vc.burst) ++bursts;

        if (vc.op == BusOp::kNop) return;

        if (vc.op == BusOp::kRead) ++reads;
        if (vc.op == BusOp::kWrite) {
            ++writes;
            if (have_prev_write) {
                toggle_bits += std::popcount(
                    static_cast<std::uint16_t>(vc.data ^ prev_write_data));
                ++write_pairs;
            }
            prev_write_data = vc.data;
            have_prev_write = true;
            if (vc.data == 0x5555 || vc.data == 0xAAAA) ++alternating_writes;
        }

        if (have_prev_op) {
            addr_bits += std::popcount(vc.address ^ prev_addr);
            ++op_pairs;
            const bool same_bank = AddressMap::bank_of(vc.address) ==
                                   AddressMap::bank_of(prev_addr);
            const bool row_match = AddressMap::row_of(vc.address) ==
                                   AddressMap::row_of(prev_addr);
            if (same_bank && !row_match) ++bank_conflicts;
            if (same_bank && row_match) ++same_row;
            if ((vc.op == BusOp::kRead) != (prev_op == BusOp::kRead)) {
                ++rw_switches;
            }
        }
        prev_addr = vc.address;
        prev_op = vc.op;
        have_prev_op = true;
    }
};

/// An ordered sequence of vector cycles with a human-readable name.
///
/// Patterns are value types: the ATE, the device model, and the feature
/// extractor all consume them read-only. Every mutator folds the cycles
/// it adds into stats(), so a pattern's features are derived once, as it
/// is built, never per measurement.
class TestPattern {
public:
    TestPattern() = default;
    explicit TestPattern(std::string name) : name_(std::move(name)) {}
    TestPattern(std::string name, std::vector<VectorCycle> cycles)
        : name_(std::move(name)), cycles_(std::move(cycles)) {
        fold_from(0);
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    [[nodiscard]] std::size_t size() const noexcept { return cycles_.size(); }
    [[nodiscard]] bool empty() const noexcept { return cycles_.empty(); }

    [[nodiscard]] const VectorCycle& operator[](std::size_t i) const noexcept {
        return cycles_[i];
    }
    [[nodiscard]] std::span<const VectorCycle> cycles() const noexcept {
        return cycles_;
    }

    /// Running statistics of every cycle so far.
    [[nodiscard]] const PatternStats& stats() const noexcept { return stats_; }

    void push_back(VectorCycle cycle) {
        cycles_.push_back(cycle);
        stats_.fold(cycle);
    }
    void reserve(std::size_t n) { cycles_.reserve(n); }
    void append(const TestPattern& other);

    /// Convenience builders for the march/checkerboard generators.
    void write(std::uint32_t address, std::uint16_t data, bool burst = false);
    void read(std::uint32_t address, bool burst = false);
    void nop();

    /// Equal names and cycles (the statistics follow from the cycles).
    [[nodiscard]] bool operator==(const TestPattern& other) const {
        return name_ == other.name_ && cycles_ == other.cycles_;
    }

private:
    friend class RandomTestGenerator;

    /// Takes the statistics the random generator folded as it drew the
    /// cycles; `stats` must equal folding `cycles` from empty.
    TestPattern(std::string name, std::vector<VectorCycle> cycles,
                const PatternStats& stats)
        : name_(std::move(name)), cycles_(std::move(cycles)), stats_(stats) {}

    /// Folds cycles_[first..] into stats_.
    void fold_from(std::size_t first) noexcept;

    std::string name_;
    std::vector<VectorCycle> cycles_;
    PatternStats stats_;
};

}  // namespace cichar::testgen
