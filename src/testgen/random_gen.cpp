#include "testgen/random_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "testgen/address_map.hpp"

namespace cichar::testgen {
namespace {

// The draw schedule. Every vector cycle takes exactly two 64-bit draws,
// a and b, whatever it decides, and reads each decision off its own bit
// field:
//
//   a: [0,16) CE/OE disturbance   [16,32) NOP       [32,48) address arm
//      [48,60) address word (column | row | bank)   [60] CE vs OE
//   b: [0,16) burst opens + its length   [16,32) write   [32,48) data mode
//      [48,64) random data word (bit 48 also picks the solid word)
//
// A Bernoulli decision compares a 16-bit field against p * 2^16, so
// p = 0 never fires and p = 1 always does. Selects are mask arithmetic:
// the loop has no data-dependent branch.
constexpr std::uint32_t kUnit = 1u << 16;

constexpr std::uint32_t field16(std::uint64_t draw, unsigned shift) noexcept {
    return static_cast<std::uint32_t>(draw >> shift) & (kUnit - 1);
}

/// All ones when `condition` holds, else zero.
constexpr std::uint32_t mask_if(bool condition) noexcept {
    return 0u - static_cast<std::uint32_t>(condition);
}

/// `if_set` where `mask` is all ones, `otherwise` where it is zero.
constexpr std::uint32_t select(std::uint32_t mask, std::uint32_t if_set,
                               std::uint32_t otherwise) noexcept {
    return (if_set & mask) | (otherwise & ~mask);
}

/// Bit counts of the two 16-bit halves, each left in its half (SWAR:
/// without -march there is no popcnt instruction).
constexpr std::uint32_t popcount_halves(std::uint32_t x) noexcept {
    x -= (x >> 1) & 0x55555555u;
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0F0F0F0Fu;
    return (x + (x >> 8)) & 0x001F001Fu;
}

std::uint32_t threshold(double p) noexcept {
    return static_cast<std::uint32_t>(
        std::lround(std::clamp(p, 0.0, 1.0) * static_cast<double>(kUnit)));
}

/// A recipe's per-cycle probabilities as field thresholds, computed once.
struct DrawSchedule {
    explicit DrawSchedule(const PatternRecipe& r)
        : control(threshold(r.control_activity)),
          nop(threshold(r.nop_fraction)),
          local(threshold(r.row_locality)),
          conflict(threshold(r.row_locality + r.bank_conflict_bias)),
          burst(threshold(r.burst_length > 1.0 ? 1.0 - 1.0 / r.burst_length
                                               : 0.0)),
          write(threshold(r.write_fraction)),
          toggle(threshold(r.toggle_bias)),
          alternating(threshold(r.toggle_bias + r.alternating_data_bias)),
          solid(threshold(r.toggle_bias + r.alternating_data_bias +
                          r.solid_data_bias)) {
        // Below its threshold the burst field is uniform on [0, burst):
        // scale it onto lengths [1, floor(L)]. Lengths are capped at the
        // field's resolution, far beyond any pattern.
        const auto longest = static_cast<std::uint64_t>(
            std::clamp(r.burst_length, 1.0, static_cast<double>(kUnit)));
        burst_scale = burst > 0 ? (longest << 32) / burst : 0;
    }

    std::uint32_t control, nop, local, conflict, burst, write;
    std::uint32_t toggle, alternating, solid;  ///< cumulative data modes
    std::uint64_t burst_scale = 0;  ///< 2^32 * floor(L) / burst
};

}  // namespace

RandomTestGenerator::RandomTestGenerator(RandomGeneratorOptions options)
    : options_(options) {
    assert(options_.min_cycles >= 1);
    assert(options_.min_cycles <= options_.max_cycles);
}

PatternRecipe RandomTestGenerator::random_recipe(util::Rng& rng) const {
    std::array<double, kSequenceGeneCount> genes{};
    for (double& g : genes) g = rng.uniform();
    PatternRecipe r =
        PatternRecipe::decode(genes, options_.min_cycles, options_.max_cycles);
    r.seed = rng();
    return r;
}

TestConditions RandomTestGenerator::random_conditions(util::Rng& rng) const {
    return options_.condition_bounds.decode(rng.uniform(), rng.uniform(),
                                            rng.uniform(), rng.uniform());
}

TestPattern RandomTestGenerator::expand(const PatternRecipe& recipe,
                                        std::string name) const {
    const DrawSchedule t(recipe);
    const std::uint32_t n = recipe.cycles;
    std::vector<VectorCycle> cycles(n);
    util::Rng rng(recipe.seed);

    // Generator state. Bus control levels are bits: 1 = CE, 2 = OE. The
    // last bus op and written word are also the fold's previous-op state.
    std::uint32_t control = 1;
    std::uint32_t burst_left = 0;
    std::uint32_t prev_addr = 0;
    std::uint32_t prev_data = 0;
    std::uint32_t prev_read = 0;  // masks: all ones or zero
    std::uint32_t have_op = 0;
    std::uint32_t have_write = 0;

    // PatternStats, folded in registers. A 0/1 event is counted by
    // subtracting its all-ones mask; no count exceeds the cycle count.
    std::uint32_t prev_control = 1;  // as driven: reads assert OE
    std::uint32_t ops = 0, writes = 0, bursts = 0, control_changes = 0;
    std::uint32_t alternating_writes = 0, same_row = 0, bank_conflicts = 0;
    std::uint32_t rw_switches = 0;
    std::uint64_t toggle_bits = 0, addr_bits = 0;

    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t a = rng();
        const std::uint64_t b = rng();

        // Bus control disturbance: real application boards wiggle CE/OE
        // asynchronously; this is the paper's "bus control signals" noise.
        const std::uint32_t disturb = mask_if(field16(a, 0) < t.control);
        control ^= disturb & (1u + static_cast<std::uint32_t>((a >> 60) & 1u));

        const std::uint32_t op = mask_if(field16(a, 16) >= t.nop);
        const std::uint32_t cont = op & mask_if(burst_left != 0);

        // Address: burst continuation, else the open row (hop columns),
        // the same bank on a different row (forces precharge/activate),
        // or a random word. Locality needs a previous op.
        const std::uint32_t arm = field16(a, 32);
        const std::uint32_t bits = static_cast<std::uint32_t>(a >> 48) &
                                   (AddressMap::kWords - 1);
        const std::uint32_t column = AddressMap::column_of(bits);
        const std::uint32_t draw_row = AddressMap::row_of(bits);
        const std::uint32_t row =
            draw_row + static_cast<std::uint32_t>(
                           draw_row == AddressMap::row_of(prev_addr));
        const std::uint32_t same_row_addr =
            (prev_addr & ~(AddressMap::kColumns - 1)) | column;
        const std::uint32_t conflict_addr =
            AddressMap::compose(AddressMap::bank_of(prev_addr), row, column);
        const std::uint32_t local = have_op & mask_if(arm < t.local);
        const std::uint32_t conflict = have_op & mask_if(arm < t.conflict);
        std::uint32_t address = select(conflict, conflict_addr, bits);
        address = select(local, same_row_addr, address);
        address = select(cont, AddressMap::wrap(prev_addr + 1), address);
        address &= op;

        // A fresh op opens a burst of uniform length in [1, floor(L)];
        // the length is read off the same field below its threshold.
        const std::uint32_t burst_draw = field16(b, 0);
        const std::uint32_t opens =
            op & ~cont & mask_if(burst_draw < t.burst);
        const auto length = static_cast<std::uint32_t>(
            1 + ((std::uint64_t{burst_draw} * t.burst_scale) >> 32));
        burst_left = select(cont, burst_left - 1, opens & length);

        // Op and data: complement of the previous word, 0x5555/0xAAAA by
        // cycle parity, all zeros/ones, or random. The solid word's bit
        // comes from the random word's field, which that arm never uses.
        const std::uint32_t write = op & mask_if(field16(b, 16) < t.write);
        const std::uint32_t read = op & ~write;
        const std::uint32_t mode = field16(b, 32);
        const std::uint32_t noise = field16(b, 48);
        const std::uint32_t alternating = 0x5555u ^ (0xFFFFu & (0u - (i & 1u)));
        const std::uint32_t solid = 0xFFFFu & (0u - (noise & 1u));
        std::uint32_t data = select(mask_if(mode < t.solid), solid, noise);
        data = select(mask_if(mode < t.alternating), alternating, data);
        data = select(mask_if(mode < t.toggle), ~prev_data & 0xFFFFu, data);
        data &= write;

        const std::uint32_t driven = control | (read & 2u);
        VectorCycle& vc = cycles[i];
        vc.address = address;
        vc.data = static_cast<std::uint16_t>(data);
        vc.op = static_cast<BusOp>((read & 1u) | (write & 2u));
        vc.chip_enable = (driven & 1u) != 0;
        vc.output_enable = (driven & 2u) != 0;
        vc.burst = cont != 0;

        // The fold of PatternStats, restated branch-free.
        control_changes -= mask_if(driven != prev_control);
        prev_control = driven;
        ops -= op;
        writes -= write;
        bursts -= cont;
        alternating_writes -= mask_if(data == 0x5555u || data == 0xAAAAu);

        const std::uint32_t write_pair = write & have_write;
        const std::uint32_t op_pair = op & have_op;
        const std::uint32_t flipped = address ^ prev_addr;
        const std::uint32_t same_bank = mask_if(AddressMap::bank_of(flipped) == 0);
        const std::uint32_t row_match = mask_if(AddressMap::row_of(flipped) == 0);
        same_row -= op_pair & same_bank & row_match;
        bank_conflicts -= op_pair & same_bank & ~row_match;
        rw_switches -= op_pair & (read ^ prev_read);
        // Both bit counts in one word: data flips low, address flips high.
        const std::uint32_t counted = popcount_halves(
            (((data ^ prev_data) & write_pair) & 0xFFFFu) |
            ((flipped & op_pair) << 16));
        toggle_bits += counted & 0xFFFFu;
        addr_bits += counted >> 16;

        prev_data = select(write, data, prev_data);
        have_write |= write;
        prev_addr = select(op, address, prev_addr);
        prev_read = select(op, read, prev_read);
        have_op |= op;
    }

    // The first cycle has no predecessor: its change from the idle
    // levels was counted above and is not a change.
    if (n != 0) {
        control_changes -= static_cast<std::uint32_t>(
            !cycles[0].chip_enable || cycles[0].output_enable);
    }

    PatternStats stats;
    stats.toggle_bits = static_cast<double>(toggle_bits);
    stats.addr_bits = static_cast<double>(addr_bits);
    stats.write_pairs = writes > 0 ? writes - 1 : 0;
    stats.op_pairs = ops > 0 ? ops - 1 : 0;
    stats.bank_conflicts = bank_conflicts;
    stats.same_row = same_row;
    stats.reads = ops - writes;
    stats.writes = writes;
    stats.rw_switches = rw_switches;
    stats.bursts = bursts;
    stats.alternating_writes = alternating_writes;
    stats.control_changes = control_changes;
    stats.prev_addr = prev_addr;
    stats.prev_write_data = static_cast<std::uint16_t>(prev_data);
    stats.prev_op = ops == 0          ? BusOp::kNop
                    : prev_read != 0 ? BusOp::kRead
                                     : BusOp::kWrite;
    stats.have_prev_cycle = n != 0;
    stats.have_prev_write = writes != 0;
    stats.have_prev_op = ops != 0;
    stats.prev_ce = (prev_control & 1u) != 0;
    stats.prev_oe = (prev_control & 2u) != 0;
    return TestPattern(name.empty() ? "random" : std::move(name),
                       std::move(cycles), stats);
}

Test RandomTestGenerator::random_test(util::Rng& rng, std::string name) const {
    const PatternRecipe recipe = random_recipe(rng);
    const TestConditions conditions = random_conditions(rng);
    return make_test(recipe, conditions, std::move(name));
}

Test RandomTestGenerator::make_test(const PatternRecipe& recipe,
                                    const TestConditions& conditions,
                                    std::string name) const {
    Test t;
    t.name = name.empty() ? "random" : std::move(name);
    t.pattern = expand(recipe, t.name);
    t.conditions = conditions;
    return t;
}

}  // namespace cichar::testgen
