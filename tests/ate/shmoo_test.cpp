#include "ate/shmoo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "device/memory_chip.hpp"
#include "testgen/random_gen.hpp"

namespace cichar::ate {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

std::vector<testgen::Test> random_tests(std::size_t n) {
    testgen::RandomTestGenerator gen;
    util::Rng rng(5);
    std::vector<testgen::Test> tests;
    for (std::size_t i = 0; i < n; ++i) {
        tests.push_back(gen.random_test(rng, std::string("t").append(std::to_string(i))));
    }
    return tests;
}

ShmooOptions small_grid() {
    ShmooOptions o;
    o.x_min = 18.0;
    o.x_max = 40.0;
    o.x_steps = 23;
    o.vdd_min = 1.5;
    o.vdd_max = 2.1;
    o.vdd_steps = 5;
    return o;
}

TEST(ShmooTest, GridShape) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(3);
    const ShmooPlotter plotter(small_grid());
    const ShmooGrid grid =
        plotter.run(tester, Parameter::data_valid_time(), tests);
    EXPECT_EQ(grid.x_steps(), 23u);
    EXPECT_EQ(grid.vdd_steps(), 5u);
    EXPECT_EQ(grid.tests(), 3u);
    EXPECT_EQ(grid.boundaries().size(), 3u);
}

TEST(ShmooTest, RowsMonotonePassThenFail) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    const ShmooPlotter plotter(small_grid());
    const ShmooGrid grid =
        plotter.run(tester, Parameter::data_valid_time(), tests);
    for (std::size_t iy = 0; iy < grid.vdd_steps(); ++iy) {
        bool seen_fail = false;
        for (std::size_t ix = 0; ix < grid.x_steps(); ++ix) {
            const bool pass = grid.pass_count(ix, iy) > 0;
            if (!pass) seen_fail = true;
            if (seen_fail) {
                EXPECT_FALSE(pass) << "non-monotone row at (" << ix << ","
                                   << iy << ")";
            }
        }
    }
}

TEST(ShmooTest, HigherVddPassesFurther) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    const ShmooPlotter plotter(small_grid());
    const ShmooGrid grid =
        plotter.run(tester, Parameter::data_valid_time(), tests);
    const auto passes_in_row = [&](std::size_t iy) {
        std::size_t n = 0;
        for (std::size_t ix = 0; ix < grid.x_steps(); ++ix) {
            if (grid.pass_count(ix, iy) > 0) ++n;
        }
        return n;
    };
    EXPECT_GT(passes_in_row(grid.vdd_steps() - 1), passes_in_row(0));
}

TEST(ShmooTest, ExhaustiveMatchesFastShmoo) {
    const auto tests = random_tests(2);
    ShmooOptions opts = small_grid();

    device::MemoryTestChip chip_a({}, noiseless());
    Tester tester_a(chip_a);
    opts.exhaustive = false;
    const ShmooGrid fast =
        ShmooPlotter(opts).run(tester_a, Parameter::data_valid_time(), tests);

    device::MemoryTestChip chip_b({}, noiseless());
    Tester tester_b(chip_b);
    opts.exhaustive = true;
    const ShmooGrid full =
        ShmooPlotter(opts).run(tester_b, Parameter::data_valid_time(), tests);

    for (std::size_t iy = 0; iy < fast.vdd_steps(); ++iy) {
        for (std::size_t ix = 0; ix < fast.x_steps(); ++ix) {
            EXPECT_EQ(fast.pass_count(ix, iy), full.pass_count(ix, iy))
                << "(" << ix << "," << iy << ")";
        }
    }
    // And the fast version costs far fewer measurements.
    EXPECT_LT(tester_a.log().total().applications,
              tester_b.log().total().applications / 2);
}

TEST(ShmooTest, SymbolsEncodeBand) {
    ShmooGrid grid({1.0, 2.0}, {1.8});
    grid.bump_tests();
    grid.bump_tests();
    grid.add_pass(0, 0);
    grid.add_pass(0, 0);
    grid.add_pass(1, 0);
    EXPECT_EQ(grid.symbol(0, 0), '*');  // all pass
    EXPECT_NE(grid.symbol(1, 0), '*');  // partial
    EXPECT_NE(grid.symbol(1, 0), '.');
    ShmooGrid empty({1.0}, {1.8});
    empty.bump_tests();
    EXPECT_EQ(empty.symbol(0, 0), '.');
}

TEST(ShmooTest, RenderContainsAxesAndSpec) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    const ShmooPlotter plotter(small_grid());
    const Parameter p = Parameter::data_valid_time();
    const ShmooGrid grid = plotter.run(tester, p, tests);
    const std::string out = grid.render(p);
    EXPECT_NE(out.find("Vdd"), std::string::npos);
    EXPECT_NE(out.find("T_DQ"), std::string::npos);
    EXPECT_NE(out.find('^'), std::string::npos);  // spec marker
    EXPECT_NE(out.find("2.10 |"), std::string::npos);  // top row label
}

TEST(ShmooTest, CsvRowsMatchGrid) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    const ShmooPlotter plotter(small_grid());
    const ShmooGrid grid =
        plotter.run(tester, Parameter::data_valid_time(), tests);
    std::ostringstream out;
    grid.write_csv(out);
    std::istringstream in(out.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, grid.vdd_steps() + 1);  // header + one per row
}

TEST(ShmooTest, BoundariesWithinAxis) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(2);
    const ShmooPlotter plotter(small_grid());
    const ShmooGrid grid =
        plotter.run(tester, Parameter::data_valid_time(), tests);
    for (const auto& per_test : grid.boundaries()) {
        ASSERT_EQ(per_test.size(), grid.vdd_steps());
        for (const double b : per_test) {
            if (std::isnan(b)) continue;
            EXPECT_GE(b, 18.0);
            EXPECT_LE(b, 40.0);
        }
    }
}

TEST(ShmooTest, TemperatureYAxis) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    ShmooOptions opts = small_grid();
    opts.y_axis = ShmooYAxis::kTemperature;
    opts.vdd_min = -40.0;
    opts.vdd_max = 125.0;
    opts.vdd_steps = 7;
    const Parameter p = Parameter::data_valid_time();
    const ShmooGrid grid = ShmooPlotter(opts).run(tester, p, tests);
    EXPECT_NE(grid.y_label().find("Temperature"), std::string::npos);
    EXPECT_NE(grid.render(p).find("Temperature"), std::string::npos);
    // Cold rows pass further right than hot rows (row 0 = -40 C).
    const auto passes_in_row = [&](std::size_t iy) {
        std::size_t n = 0;
        for (std::size_t ix = 0; ix < grid.x_steps(); ++ix) {
            if (grid.pass_count(ix, iy) > 0) ++n;
        }
        return n;
    };
    EXPECT_GT(passes_in_row(0), passes_in_row(grid.vdd_steps() - 1));
}

TEST(ShmooTest, LedgerUsesShmooPhase) {
    device::MemoryTestChip chip({}, noiseless());
    Tester tester(chip);
    const auto tests = random_tests(1);
    const ShmooPlotter plotter(small_grid());
    (void)plotter.run(tester, Parameter::data_valid_time(), tests);
    EXPECT_GT(tester.log().phase_counters("shmoo").applications, 0u);
}

}  // namespace
}  // namespace cichar::ate
