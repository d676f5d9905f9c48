// Equivalence of the folded pattern statistics with a single pass over
// the finished pattern: extract_pattern_features finalizes counters the
// pattern folded as it was built, and must match, bit for bit, the
// one-pass extractor it replaced, however the pattern was built.
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testgen/address_map.hpp"
#include "testgen/features.hpp"
#include "testgen/march.hpp"
#include "testgen/pattern_io.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::testgen {
namespace {

double safe_ratio(double num, double denom) {
    return denom > 0.0 ? num / denom : 0.0;
}

// The single-pass extractor, verbatim: the reference the fold must match.
FeatureVector reference_features(const TestPattern& pattern) {
    FeatureVector fv;
    if (pattern.empty()) return fv;

    const double cycles = static_cast<double>(pattern.size());

    double toggle_bits = 0.0;
    std::size_t write_pairs = 0;
    double addr_bits = 0.0;
    std::size_t addr_pairs = 0;
    std::size_t bank_conflicts = 0;
    std::size_t same_row = 0;
    std::size_t op_pairs = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t rw_switches = 0;
    std::size_t bursts = 0;
    std::size_t alternating_writes = 0;
    std::size_t control_changes = 0;

    bool have_prev_write = false;
    std::uint16_t prev_write_data = 0;
    bool have_prev_op = false;
    std::uint32_t prev_addr = 0;
    BusOp prev_op = BusOp::kNop;
    bool have_prev_cycle = false;
    bool prev_ce = true;
    bool prev_oe = false;

    for (const VectorCycle& vc : pattern.cycles()) {
        if (have_prev_cycle &&
            (vc.chip_enable != prev_ce || vc.output_enable != prev_oe)) {
            ++control_changes;
        }
        prev_ce = vc.chip_enable;
        prev_oe = vc.output_enable;
        have_prev_cycle = true;

        if (vc.burst) ++bursts;

        if (vc.op == BusOp::kNop) continue;

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
            ++addr_pairs;
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

    auto& v = fv.values;
    v[kToggleDensity] =
        safe_ratio(toggle_bits, 16.0 * static_cast<double>(write_pairs));
    v[kAddrTransition] = safe_ratio(
        addr_bits, static_cast<double>(AddressMap::kAddressBits) *
                       static_cast<double>(addr_pairs));
    v[kBankConflictRate] = safe_ratio(static_cast<double>(bank_conflicts),
                                      static_cast<double>(op_pairs));
    v[kRowLocality] =
        safe_ratio(static_cast<double>(same_row), static_cast<double>(op_pairs));
    v[kReadFraction] = static_cast<double>(reads) / cycles;
    v[kWriteFraction] = static_cast<double>(writes) / cycles;
    v[kRwSwitchRate] = safe_ratio(static_cast<double>(rw_switches),
                                  static_cast<double>(op_pairs));
    v[kBurstiness] = static_cast<double>(bursts) / cycles;
    v[kAlternatingData] = safe_ratio(static_cast<double>(alternating_writes),
                                     static_cast<double>(writes));
    v[kControlActivity] = static_cast<double>(control_changes) / cycles;
    return fv;
}

// EXPECT_EQ on each double: bit-identical, not merely close.
void expect_matches_reference(const TestPattern& pattern) {
    const FeatureVector folded = extract_pattern_features(pattern);
    const FeatureVector reference = reference_features(pattern);
    for (std::size_t i = 0; i < kFeatureCount; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(folded[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << pattern.name() << " feature " << FeatureVector::name(i) << ": "
            << folded[i] << " vs " << reference[i];
    }
}

std::vector<TestPattern> random_patterns(std::uint64_t seed, std::size_t n) {
    const RandomTestGenerator gen;
    util::Rng rng(seed);
    std::vector<TestPattern> patterns;
    for (std::size_t i = 0; i < n; ++i) {
        patterns.push_back(
            gen.expand(gen.random_recipe(rng), std::string("r").append(std::to_string(i))));
    }
    return patterns;
}

TEST(FeatureFoldTest, RandomRecipesOverManySeeds) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (const TestPattern& p : random_patterns(seed, 8)) {
            expect_matches_reference(p);
        }
    }
}

// The random generator folds the statistics in its own loop and hands
// them over whole: every counter and the previous-cycle state must equal
// a fold of the finished cycles, so later appends continue correctly.
PatternStats fold_of(const TestPattern& pattern) {
    PatternStats stats;
    for (const VectorCycle& vc : pattern.cycles()) stats.fold(vc);
    return stats;
}

TEST(FeatureFoldTest, GeneratorHandsOverTheFoldOfItsCycles) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (const TestPattern& p : random_patterns(seed, 8)) {
            EXPECT_EQ(p.stats(), fold_of(p)) << p.name() << " seed " << seed;
        }
    }
    // Probabilities at 0 and 1, where a threshold must never or always fire.
    const RandomTestGenerator gen;
    util::Rng rng(41);
    for (int i = 0; i < 64; ++i) {
        std::array<double, kSequenceGeneCount> genes{};
        for (double& g : genes) g = static_cast<double>(rng.index(3)) / 2.0;
        PatternRecipe r = PatternRecipe::decode(genes, 0, 300);
        r.seed = rng();
        const TestPattern p = gen.expand(r, "edge");
        EXPECT_EQ(p.stats(), fold_of(p)) << r.describe();
        expect_matches_reference(p);
        TestPattern grown = p;
        grown.append(checkerboard());
        expect_matches_reference(grown);
    }
}

TEST(FeatureFoldTest, MarchAndCheckerboardPatterns) {
    for (const TestPattern& p : deterministic_suite()) {
        expect_matches_reference(p);
    }
    expect_matches_reference(march_b().expand(0x5555));
    expect_matches_reference(checkerboard());
}

TEST(FeatureFoldTest, LoadPatternRoundTrips) {
    std::vector<TestPattern> patterns = random_patterns(77, 6);
    patterns.push_back(march_c_minus().expand());
    for (const TestPattern& original : patterns) {
        std::stringstream stream;
        save_pattern(stream, original);
        const TestPattern loaded = load_pattern(stream);
        ASSERT_EQ(loaded, original);
        expect_matches_reference(loaded);
        EXPECT_EQ(extract_pattern_features(loaded).values,
                  extract_pattern_features(original).values);
    }
}

TEST(FeatureFoldTest, AppendedAndConstructedPatterns) {
    const std::vector<TestPattern> parts = random_patterns(5, 4);
    TestPattern joined("joined");
    for (const TestPattern& part : parts) {
        joined.append(part);
        expect_matches_reference(joined);
    }
    joined.append(checkerboard());
    joined.append(TestPattern{});
    expect_matches_reference(joined);

    // The (name, cycles) constructor folds the whole vector at once.
    const std::vector<VectorCycle> cycles(joined.cycles().begin(),
                                          joined.cycles().end());
    const TestPattern constructed("constructed", cycles);
    expect_matches_reference(constructed);
    EXPECT_EQ(extract_pattern_features(constructed).values,
              extract_pattern_features(joined).values);

    // Mixed builders: write/read/nop, then raw cycles.
    TestPattern mixed("mixed");
    mixed.write(0x123, 0x5555);
    mixed.nop();
    mixed.read(0x123, true);
    mixed.write(0x923, 0xAAAA, true);
    mixed.push_back(VectorCycle{.address = 0xFFFF'FFFF,
                                .data = 0xFFFF,
                                .op = BusOp::kWrite,
                                .chip_enable = false,
                                .output_enable = true,
                                .burst = true});
    mixed.append(parts.front());
    expect_matches_reference(mixed);
}

TEST(FeatureFoldTest, CopyAndMoveAssignedPatterns) {
    std::vector<TestPattern> patterns = random_patterns(11, 3);
    TestPattern copy("copy");
    copy.write(1, 2);
    copy = patterns[0];
    expect_matches_reference(copy);
    EXPECT_EQ(extract_pattern_features(copy).values,
              extract_pattern_features(patterns[0]).values);

    TestPattern moved("moved");
    moved.read(7);
    moved = std::move(patterns[1]);
    expect_matches_reference(moved);

    const TestPattern copy_constructed(patterns[2]);
    expect_matches_reference(copy_constructed);
    TestPattern move_constructed(std::move(patterns[2]));
    expect_matches_reference(move_constructed);

    // A copy keeps folding on its own, independent of the source.
    TestPattern grown = copy;
    grown.append(checkerboard());
    expect_matches_reference(grown);
    expect_matches_reference(copy);
}

TEST(FeatureFoldTest, EmptyAndOneCyclePatterns) {
    expect_matches_reference(TestPattern{});
    expect_matches_reference(TestPattern("empty", {}));

    TestPattern one_write("one-write");
    one_write.write(0x456, 0xAAAA, true);
    expect_matches_reference(one_write);

    TestPattern one_read("one-read");
    one_read.read(0x456);
    expect_matches_reference(one_read);

    TestPattern one_nop("one-nop");
    one_nop.nop();
    expect_matches_reference(one_nop);

    RandomTestGenerator gen;
    PatternRecipe recipe;
    recipe.cycles = 1;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        recipe.seed = seed;
        expect_matches_reference(gen.expand(recipe));
    }
}

}  // namespace
}  // namespace cichar::testgen
