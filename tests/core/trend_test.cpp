#include "core/trend.hpp"

#include "testgen/random_gen.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cichar::core {
namespace {

LotSummary lot(const std::string& id, double median, double min_trip,
               double max_trip, double worst_wcr) {
    LotSummary l;
    l.lot_id = id;
    l.dies = 4;
    l.trips.count = 20;
    l.trips.median = median;
    l.trips.mean = median;
    l.trips.min = min_trip;
    l.trips.max = max_trip;
    l.worst_wcr = worst_wcr;
    return l;
}

TEST(LinearSlopeTest, KnownSlopes) {
    const std::vector<double> flat{3.0, 3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(linear_slope(flat), 0.0);
    const std::vector<double> rising{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(linear_slope(rising), 1.0);
    const std::vector<double> falling{10.0, 8.0, 6.0};
    EXPECT_DOUBLE_EQ(linear_slope(falling), -2.0);
}

TEST(LinearSlopeTest, DegenerateInputs) {
    EXPECT_DOUBLE_EQ(linear_slope(std::vector<double>{}), 0.0);
    EXPECT_DOUBLE_EQ(linear_slope(std::vector<double>{5.0}), 0.0);
}

TEST(TrendTest, StableProcessNoAlarm) {
    TrendMonitor monitor(ate::Parameter::data_valid_time());
    for (int i = 0; i < 5; ++i) {
        monitor.add(lot(std::string("L").append(std::to_string(i)), 30.0, 28.0, 32.0, 0.71));
    }
    EXPECT_NEAR(monitor.median_slope(), 0.0, 1e-12);
    EXPECT_FALSE(monitor.drifting_toward_spec(0.05));
    EXPECT_TRUE(std::isinf(monitor.lots_until_spec_violation()));
}

TEST(TrendTest, ShrinkingMarginDetected) {
    // Each lot's worst trip drops 0.4 ns: margin eroding toward 20 ns.
    TrendMonitor monitor(ate::Parameter::data_valid_time());
    for (int i = 0; i < 5; ++i) {
        const double shift = 0.4 * i;
        monitor.add(lot(std::string("L").append(std::to_string(i)), 30.0 - shift, 28.0 - shift,
                        32.0 - shift, 0.71 + 0.01 * i));
    }
    EXPECT_NEAR(monitor.worst_slope(), -0.4, 1e-9);
    EXPECT_NEAR(monitor.median_slope(), -0.4, 1e-9);
    EXPECT_GT(monitor.wcr_slope(), 0.0);
    EXPECT_TRUE(monitor.drifting_toward_spec(0.1));
    // Last worst = 26.4; distance to spec 6.4; closing 0.4/lot -> 16 lots.
    EXPECT_NEAR(monitor.lots_until_spec_violation(), 16.0, 0.01);
}

TEST(TrendTest, ImprovingProcessNotFlagged) {
    TrendMonitor monitor(ate::Parameter::data_valid_time());
    for (int i = 0; i < 4; ++i) {
        monitor.add(lot(std::string("L").append(std::to_string(i)), 30.0 + 0.3 * i,
                        28.0 + 0.3 * i, 32.0 + 0.3 * i, 0.71 - 0.01 * i));
    }
    EXPECT_FALSE(monitor.drifting_toward_spec(0.05));
    EXPECT_TRUE(std::isinf(monitor.lots_until_spec_violation()));
}

TEST(TrendTest, MaxLimitDirectionReversed) {
    // Vmin spec is a max limit: drift toward spec = worst (max) rising.
    TrendMonitor monitor(ate::Parameter::min_vdd());
    for (int i = 0; i < 4; ++i) {
        monitor.add(lot(std::string("L").append(std::to_string(i)), 1.30 + 0.02 * i,
                        1.25 + 0.02 * i, 1.40 + 0.02 * i, 0.85 + 0.01 * i));
    }
    EXPECT_TRUE(monitor.drifting_toward_spec(0.01));
    // Last worst (max) = 1.46; spec 1.6; closing 0.02 -> 7 lots.
    EXPECT_NEAR(monitor.lots_until_spec_violation(), 7.0, 0.01);
}

TEST(TrendTest, TooFewLotsNeverAlarm) {
    TrendMonitor monitor(ate::Parameter::data_valid_time());
    monitor.add(lot("A", 30.0, 28.0, 32.0, 0.7));
    monitor.add(lot("B", 25.0, 23.0, 27.0, 0.85));
    EXPECT_FALSE(monitor.drifting_toward_spec(0.01));
    EXPECT_TRUE(std::isinf(monitor.lots_until_spec_violation()));
}

TEST(TrendTest, RenderShowsLotsAndProjection) {
    TrendMonitor monitor(ate::Parameter::data_valid_time());
    for (int i = 0; i < 4; ++i) {
        const double shift = 0.5 * i;
        monitor.add(lot("LOT-" + std::to_string(i), 30.0 - shift,
                        28.0 - shift, 32.0 - shift, 0.71));
    }
    const std::string text = monitor.render();
    EXPECT_NE(text.find("LOT-3"), std::string::npos);
    EXPECT_NE(text.find("worst slope"), std::string::npos);
    EXPECT_NE(text.find("projected spec violation"), std::string::npos);
}

TEST(TrendTest, SummarizeLotFromSample) {
    // End-to-end: run a tiny sample campaign and fold it into a summary.
    SampleOptions opts;
    opts.dies = 3;
    opts.chip.noise_sigma_ns = 0.0;
    const SampleCharacterizer characterizer(opts);
    testgen::RandomGeneratorOptions gen;
    gen.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    testgen::RandomTestGenerator generator(gen);
    util::Rng rng(5);
    std::vector<testgen::Test> tests;
    for (int i = 0; i < 4; ++i) {
        tests.push_back(generator.random_test(rng, std::string("t").append(std::to_string(i))));
    }
    const SampleResult sample =
        characterizer.run(ate::Parameter::data_valid_time(), tests, rng);
    const LotSummary summary = summarize_lot("LOT-X", sample);
    EXPECT_EQ(summary.lot_id, "LOT-X");
    EXPECT_EQ(summary.dies, 3u);
    EXPECT_EQ(summary.trips.count, 12u);
    EXPECT_GT(summary.worst_wcr, 0.5);
}

}  // namespace
}  // namespace cichar::core
