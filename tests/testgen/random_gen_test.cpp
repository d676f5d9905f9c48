#include "testgen/random_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "testgen/address_map.hpp"
#include "testgen/features.hpp"

namespace cichar::testgen {
namespace {

TEST(RecipeTest, DecodeClampsAndRanges) {
    std::array<double, kSequenceGeneCount> genes{};
    genes.fill(0.0);
    const PatternRecipe lo = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(lo.cycles, 100u);
    EXPECT_DOUBLE_EQ(lo.write_fraction, 0.0);
    EXPECT_DOUBLE_EQ(lo.burst_length, 1.0);

    genes.fill(1.0);
    const PatternRecipe hi = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(hi.cycles, 1000u);
    EXPECT_DOUBLE_EQ(hi.burst_length, 16.0);
    // Data-mode shares renormalized to sum <= 1.
    EXPECT_LE(hi.alternating_data_bias + hi.solid_data_bias + hi.toggle_bias,
              1.0 + 1e-12);
}

TEST(RecipeTest, DecodeOutOfRangeGenesClamped) {
    std::array<double, kSequenceGeneCount> genes{};
    genes.fill(5.0);
    const PatternRecipe r = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(r.cycles, 1000u);
    genes.fill(-5.0);
    const PatternRecipe r2 = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(r2.cycles, 100u);
}

TEST(RecipeTest, EncodeDecodeRoundTrip) {
    PatternRecipe r;
    r.cycles = 500;
    r.write_fraction = 0.4;
    r.nop_fraction = 0.12;
    r.burst_length = 7.0;
    r.row_locality = 0.3;
    r.bank_conflict_bias = 0.25;
    r.alternating_data_bias = 0.2;
    r.solid_data_bias = 0.1;
    r.toggle_bias = 0.3;
    r.control_activity = 0.05;
    const auto genes = r.encode(100, 1000);
    const PatternRecipe back = PatternRecipe::decode(genes, 100, 1000);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_NEAR(back.write_fraction, r.write_fraction, 1e-9);
    EXPECT_NEAR(back.nop_fraction, r.nop_fraction, 1e-9);
    EXPECT_NEAR(back.burst_length, r.burst_length, 1e-9);
    EXPECT_NEAR(back.toggle_bias, r.toggle_bias, 1e-9);
}

TEST(RecipeTest, DescribeMentionsFields) {
    PatternRecipe r;
    r.cycles = 321;
    const std::string d = r.describe();
    EXPECT_NE(d.find("cycles=321"), std::string::npos);
    EXPECT_NE(d.find("seed="), std::string::npos);
}

TEST(RandomGenTest, CycleCountWithinPaperBounds) {
    RandomTestGenerator gen;
    util::Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const testgen::Test t = gen.random_test(rng);
        EXPECT_GE(t.pattern.size(), 100u);
        EXPECT_LE(t.pattern.size(), 1000u);
    }
}

TEST(RandomGenTest, ExpansionDeterministicForRecipe) {
    RandomTestGenerator gen;
    util::Rng rng(2);
    const PatternRecipe recipe = gen.random_recipe(rng);
    const TestPattern a = gen.expand(recipe);
    const TestPattern b = gen.expand(recipe);
    EXPECT_EQ(a, b);
}

TEST(RandomGenTest, DifferentSeedsDifferentPatterns) {
    RandomTestGenerator gen;
    util::Rng rng(3);
    PatternRecipe recipe = gen.random_recipe(rng);
    const TestPattern a = gen.expand(recipe);
    recipe.seed ^= 0xDEADBEEF;
    const TestPattern b = gen.expand(recipe);
    EXPECT_NE(a, b);
}

TEST(RandomGenTest, ConditionsWithinBounds) {
    RandomTestGenerator gen;
    util::Rng rng(4);
    const ConditionBounds& b = gen.options().condition_bounds;
    for (int i = 0; i < 100; ++i) {
        const TestConditions c = gen.random_conditions(rng);
        EXPECT_GE(c.vdd_volts, b.vdd_min);
        EXPECT_LE(c.vdd_volts, b.vdd_max);
        EXPECT_GE(c.temperature_c, b.temperature_min);
        EXPECT_LE(c.temperature_c, b.temperature_max);
    }
}

TEST(RandomGenTest, WriteFractionControlsWrites) {
    RandomGeneratorOptions opts;
    RandomTestGenerator gen(opts);
    PatternRecipe r;
    r.cycles = 1000;
    r.nop_fraction = 0.0;
    r.write_fraction = 1.0;
    r.seed = 5;
    const FeatureVector all_writes =
        extract_pattern_features(gen.expand(r));
    EXPECT_GT(all_writes[kWriteFraction], 0.99);

    r.write_fraction = 0.0;
    const FeatureVector all_reads = extract_pattern_features(gen.expand(r));
    EXPECT_GT(all_reads[kReadFraction], 0.99);
}

TEST(RandomGenTest, NopFractionRespected) {
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 1000;
    r.nop_fraction = 0.3;
    r.seed = 6;
    const TestPattern p = gen.expand(r);
    std::size_t nops = 0;
    for (const VectorCycle& vc : p.cycles()) {
        if (vc.op == BusOp::kNop) ++nops;
    }
    EXPECT_NEAR(static_cast<double>(nops) / 1000.0, 0.3, 0.06);
}

TEST(RandomGenTest, BankConflictBiasRaisesConflicts) {
    RandomTestGenerator gen;
    PatternRecipe calm;
    calm.cycles = 1000;
    calm.bank_conflict_bias = 0.0;
    calm.row_locality = 0.0;
    calm.burst_length = 1.0;
    calm.seed = 7;
    PatternRecipe hot = calm;
    hot.bank_conflict_bias = 0.95;
    const double calm_rate =
        extract_pattern_features(gen.expand(calm))[kBankConflictRate];
    const double hot_rate =
        extract_pattern_features(gen.expand(hot))[kBankConflictRate];
    EXPECT_GT(hot_rate, calm_rate + 0.3);
}

TEST(RandomGenTest, RowLocalityRaisesLocality) {
    RandomTestGenerator gen;
    PatternRecipe base;
    base.cycles = 1000;
    base.row_locality = 0.0;
    base.burst_length = 1.0;
    base.seed = 8;
    PatternRecipe local = base;
    local.row_locality = 0.95;
    const double lo = extract_pattern_features(gen.expand(base))[kRowLocality];
    const double hi = extract_pattern_features(gen.expand(local))[kRowLocality];
    EXPECT_GT(hi, lo + 0.3);
}

TEST(RandomGenTest, BurstLengthRaisesBurstiness) {
    RandomTestGenerator gen;
    PatternRecipe base;
    base.cycles = 1000;
    base.burst_length = 1.0;
    base.seed = 9;
    PatternRecipe bursty = base;
    bursty.burst_length = 12.0;
    const double lo = extract_pattern_features(gen.expand(base))[kBurstiness];
    const double hi = extract_pattern_features(gen.expand(bursty))[kBurstiness];
    EXPECT_GT(hi, lo + 0.4);
}

TEST(RandomGenTest, ToggleChainLocksIntoAlternating) {
    // toggle_bias with occasional alternating writes locks the data chain
    // into {0x5555, 0xAAAA}: both toggle density and the alternating
    // fraction end up high (the worst-case pocket entrance).
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 1000;
    r.write_fraction = 0.7;
    r.nop_fraction = 0.0;
    r.toggle_bias = 0.65;
    r.alternating_data_bias = 0.3;
    r.solid_data_bias = 0.0;
    r.seed = 10;
    const FeatureVector fv = extract_pattern_features(gen.expand(r));
    EXPECT_GT(fv[kToggleDensity], 0.7);
    EXPECT_GT(fv[kAlternatingData], 0.7);
}

TEST(RandomGenTest, MakeTestCarriesNameAndConditions) {
    RandomTestGenerator gen;
    PatternRecipe r;
    r.cycles = 200;
    r.seed = 11;
    TestConditions c;
    c.vdd_volts = 2.0;
    const testgen::Test t = gen.make_test(r, c, "my-test");
    EXPECT_EQ(t.name, "my-test");
    EXPECT_EQ(t.pattern.name(), "my-test");
    EXPECT_DOUBLE_EQ(t.conditions.vdd_volts, 2.0);
    EXPECT_EQ(t.pattern.size(), 200u);
}

TEST(RandomGenTest, CustomCycleBounds) {
    RandomGeneratorOptions opts;
    opts.min_cycles = 50;
    opts.max_cycles = 60;
    RandomTestGenerator gen(opts);
    util::Rng rng(12);
    for (int i = 0; i < 20; ++i) {
        const testgen::Test t = gen.random_test(rng);
        EXPECT_GE(t.pattern.size(), 50u);
        EXPECT_LE(t.pattern.size(), 60u);
    }
}

// ---------------------------------------------------------------------
// The generator's contract: over long patterns, the observed shares match
// the recipe's per-cycle probabilities within binomial tolerance (plus
// the draw schedule's 2^-16 threshold resolution).

constexpr std::uint32_t kLongPattern = 200'000;

/// Observed counts of one pattern, walked once.
struct Tally {
    std::size_t cycles = 0, nops = 0, reads = 0, writes = 0;
    std::size_t ce_pairs = 0, ce_changes = 0;
    // Burst runs (maximal stretches of burst-flagged cycles) and the fresh
    // (not burst-continuing) ops that could open one.
    std::size_t runs = 0, run_cycles = 0, fresh_ops = 0;
    // Fresh ops that follow a previous op: same row / bank conflict.
    std::size_t located = 0, same_row = 0, conflicts = 0;
    // Write data that could come from each mode (a word can match two).
    std::size_t complemented = 0, parity_words = 0, solid_words = 0,
                solid_ones = 0, other_words = 0;
};

Tally tally(const TestPattern& p) {
    Tally t;
    t.cycles = p.size();
    bool have_op = false, have_write = false, in_run = false;
    std::uint32_t prev_addr = 0;
    std::uint16_t prev_data = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const VectorCycle& vc = p[i];
        if (i > 0) {
            ++t.ce_pairs;
            if (vc.chip_enable != p[i - 1].chip_enable) ++t.ce_changes;
        }
        if (vc.burst && !in_run) ++t.runs;
        in_run = vc.burst;
        if (vc.burst) ++t.run_cycles;
        if (vc.op == BusOp::kNop) {
            ++t.nops;
            continue;
        }
        if (vc.op == BusOp::kRead) ++t.reads;
        if (vc.op == BusOp::kWrite) {
            ++t.writes;
            const std::uint16_t parity = (i & 1u) != 0 ? 0xAAAA : 0x5555;
            const bool complemented =
                have_write && vc.data == static_cast<std::uint16_t>(~prev_data);
            const bool solid = vc.data == 0x0000 || vc.data == 0xFFFF;
            if (complemented) ++t.complemented;
            if (vc.data == parity) ++t.parity_words;
            if (solid) ++t.solid_words;
            if (vc.data == 0xFFFF) ++t.solid_ones;
            if (!complemented && vc.data != parity && !solid) ++t.other_words;
            prev_data = vc.data;
            have_write = true;
        }
        if (!vc.burst) {
            ++t.fresh_ops;
            if (have_op) {
                ++t.located;
                const bool same_bank =
                    AddressMap::bank_of(vc.address) == AddressMap::bank_of(prev_addr);
                const bool same_row =
                    AddressMap::row_of(vc.address) == AddressMap::row_of(prev_addr);
                if (same_bank && same_row) ++t.same_row;
                if (same_bank && !same_row) ++t.conflicts;
            }
        }
        prev_addr = vc.address;
        have_op = true;
    }
    return t;
}

/// EXPECT that `hits` of `trials` matches probability `p`: five binomial
/// standard deviations plus the threshold resolution.
void expect_share(std::size_t hits, std::size_t trials, double p, const char* what) {
    ASSERT_GT(trials, 0u) << what;
    const double n = static_cast<double>(trials);
    const double tolerance = 5.0 * std::sqrt(p * (1.0 - p) / n) + 4.0 / 65536.0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, tolerance)
        << what << ": " << hits << " of " << trials;
}

PatternRecipe long_recipe(std::uint64_t seed) {
    PatternRecipe r;
    r.cycles = kLongPattern;
    r.seed = seed;
    return r;
}

std::vector<PatternRecipe> recipe_sweep() {
    std::vector<PatternRecipe> sweep;
    PatternRecipe r = long_recipe(101);
    sweep.push_back(r);  // the defaults
    r = long_recipe(102);
    r.write_fraction = 0.9;
    r.nop_fraction = 0.25;
    r.row_locality = 0.1;
    r.bank_conflict_bias = 0.7;
    r.control_activity = 0.6;
    r.burst_length = 1.0;
    sweep.push_back(r);
    r = long_recipe(103);
    r.write_fraction = 0.15;
    r.nop_fraction = 0.0;
    r.row_locality = 0.8;
    r.bank_conflict_bias = 0.0;
    r.control_activity = 0.02;
    r.burst_length = 9.5;
    sweep.push_back(r);
    // Every recipe the GA could decode from a few random chromosomes.
    const RandomTestGenerator gen;
    util::Rng rng(104);
    for (int i = 0; i < 4; ++i) {
        r = gen.random_recipe(rng);
        r.cycles = kLongPattern;
        sweep.push_back(r);
    }
    return sweep;
}

TEST(RandomGenContractTest, CycleCountIsExact) {
    const RandomTestGenerator gen;
    util::Rng rng(105);
    for (const std::uint32_t cycles : {0u, 1u, 2u, 99u, 100u, 777u, 1000u, 4096u}) {
        PatternRecipe r = gen.random_recipe(rng);
        r.cycles = cycles;
        EXPECT_EQ(gen.expand(r).size(), cycles);
    }
}

TEST(RandomGenContractTest, NopAndWriteSharesMatchTheRecipe) {
    const RandomTestGenerator gen;
    for (const PatternRecipe& r : recipe_sweep()) {
        SCOPED_TRACE(r.describe());
        const Tally t = tally(gen.expand(r));
        ASSERT_EQ(t.cycles, r.cycles);
        expect_share(t.nops, t.cycles, r.nop_fraction, "NOP share");
        expect_share(t.writes, t.reads + t.writes, r.write_fraction,
                     "write share of ops");
    }
}

TEST(RandomGenContractTest, ChipEnableChangeRateMatchesTheRecipe) {
    // A disturbance flips CE or OE with equal odds; CE is driven as is.
    const RandomTestGenerator gen;
    for (const PatternRecipe& r : recipe_sweep()) {
        SCOPED_TRACE(r.describe());
        const Tally t = tally(gen.expand(r));
        expect_share(t.ce_changes, t.ce_pairs, r.control_activity / 2.0,
                     "CE change rate");
    }
}

TEST(RandomGenContractTest, BurstsOpenAndRunAsTheRecipeSays) {
    const RandomTestGenerator gen;
    for (const PatternRecipe& base : recipe_sweep()) {
        PatternRecipe r = base;
        r.nop_fraction = 0.0;  // a NOP cuts a burst short
        SCOPED_TRACE(r.describe());
        const Tally t = tally(gen.expand(r));
        const double p_open =
            r.burst_length > 1.0 ? 1.0 - 1.0 / r.burst_length : 0.0;
        // Every fresh op but the last may open a run.
        expect_share(t.runs, t.fresh_ops, p_open, "burst open rate");
        if (t.runs < 100) continue;
        // Run lengths are uniform on [1, floor(L)].
        const double longest = std::floor(r.burst_length);
        const double mean = (1.0 + longest) / 2.0;
        const double sd = std::sqrt((longest * longest - 1.0) / 12.0);
        const double runs = static_cast<double>(t.runs);
        EXPECT_NEAR(static_cast<double>(t.run_cycles) / runs, mean,
                    5.0 * sd / std::sqrt(runs) + 1e-3)
            << t.runs << " runs";
    }
}

TEST(RandomGenContractTest, LocalityArmsMatchTheRecipe) {
    // Fresh ops after a previous op: the open row, the same bank on a
    // different row, or a random word (which lands in the same row with
    // odds 1/256 and in a conflicting row with odds 63/256).
    const RandomTestGenerator gen;
    for (const PatternRecipe& r : recipe_sweep()) {
        SCOPED_TRACE(r.describe());
        const Tally t = tally(gen.expand(r));
        const double local = std::min(1.0, r.row_locality);
        const double conflict = std::min(1.0, local + r.bank_conflict_bias) - local;
        const double random = 1.0 - local - conflict;
        expect_share(t.same_row, t.located, local + random / 256.0,
                     "same-row share");
        expect_share(t.conflicts, t.located, conflict + random * 63.0 / 256.0,
                     "bank-conflict share");
    }
}

TEST(RandomGenContractTest, DataModeMixMatchesTheRecipe) {
    // Each mode alone, then the mix: a random word collides with one of
    // the four special words with odds 4/65536 at most.
    const RandomTestGenerator gen;
    struct Mix {
        double toggle, alternating, solid;
    };
    for (const Mix m : {Mix{0.4, 0.0, 0.0}, Mix{0.0, 0.35, 0.0},
                        Mix{0.0, 0.0, 0.3}, Mix{0.2, 0.25, 0.15}}) {
        PatternRecipe r = long_recipe(106);
        r.write_fraction = 0.8;
        r.toggle_bias = m.toggle;
        r.alternating_data_bias = m.alternating;
        r.solid_data_bias = m.solid;
        SCOPED_TRACE(r.describe());
        const Tally t = tally(gen.expand(r));
        const double random = 1.0 - m.toggle - m.alternating - m.solid;
        expect_share(t.other_words, t.writes, random * (1.0 - 3.5 / 65536.0),
                     "random words");
        if (m.alternating == 0.0 && m.solid == 0.0) {
            expect_share(t.complemented, t.writes, m.toggle, "complemented words");
        }
        if (m.toggle == 0.0 && m.solid == 0.0) {
            expect_share(t.parity_words, t.writes, m.alternating, "0x5555/0xAAAA");
        }
        if (m.toggle == 0.0 && m.alternating == 0.0) {
            expect_share(t.solid_words, t.writes, m.solid, "solid words");
            expect_share(t.solid_ones, t.solid_words, 0.5, "0xFFFF of solid words");
        }
    }
}

TEST(RandomGenContractTest, ConflictArmNeverRepeatsThePreviousRow) {
    const RandomTestGenerator gen;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PatternRecipe r = long_recipe(seed);
        r.cycles = 20'000;
        r.row_locality = 0.0;
        r.bank_conflict_bias = 1.0;
        r.burst_length = 1.0;  // every op after the first is a conflict
        const TestPattern p = gen.expand(r);
        bool have_op = false;
        std::uint32_t prev = 0;
        std::size_t pairs = 0;
        for (const VectorCycle& vc : p.cycles()) {
            if (vc.op == BusOp::kNop) continue;
            if (have_op) {
                ++pairs;
                ASSERT_EQ(AddressMap::bank_of(vc.address), AddressMap::bank_of(prev));
                ASSERT_NE(AddressMap::row_of(vc.address), AddressMap::row_of(prev));
            }
            prev = vc.address;
            have_op = true;
        }
        EXPECT_GT(pairs, 15'000u);
    }
}

}  // namespace
}  // namespace cichar::testgen
