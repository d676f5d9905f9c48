#include "ate/datalog.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ate/tester.hpp"
#include "device/memory_chip.hpp"

namespace cichar::ate {
namespace {

DatalogEntry entry(const std::string& name, double setting, bool pass) {
    return DatalogEntry{name, "T_DQ", setting, pass, false};
}

TEST(DatalogTest, DisabledByDefault) {
    Datalog log;
    EXPECT_FALSE(log.enabled());
    log.record(entry("a", 1.0, true));
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.total_recorded(), 0u);
}

TEST(DatalogTest, RecordsWhenEnabled) {
    Datalog log;
    log.set_enabled(true);
    log.record(entry("a", 1.0, true));
    log.record(entry("b", 2.0, false));
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.entry(0).test_name, "a");
    EXPECT_EQ(log.entry(1).test_name, "b");
    EXPECT_FALSE(log.entry(1).pass);
}

TEST(DatalogTest, RingDropsOldest) {
    Datalog log(3);
    log.set_enabled(true);
    for (int i = 0; i < 5; ++i) {
        log.record(entry(std::string("e").append(std::to_string(i)), i, true));
    }
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.total_recorded(), 5u);
    EXPECT_EQ(log.entry(0).test_name, "e2");  // oldest surviving
    EXPECT_EQ(log.entry(2).test_name, "e4");  // newest
}

TEST(DatalogTest, EntryOutOfRangeThrows) {
    Datalog log;
    log.set_enabled(true);
    log.record(entry("a", 1.0, true));
    EXPECT_THROW((void)log.entry(1), std::out_of_range);
}

TEST(DatalogTest, ClearResets) {
    Datalog log(2);
    log.set_enabled(true);
    for (int i = 0; i < 4; ++i) log.record(entry("x", i, true));
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.total_recorded(), 0u);
    log.record(entry("fresh", 0.0, true));
    EXPECT_EQ(log.entry(0).test_name, "fresh");
}

TEST(DatalogTest, CsvExport) {
    Datalog log;
    log.set_enabled(true);
    log.record(entry("t1", 25.5, true));
    log.record(DatalogEntry{"t2", "functional", 0.0, false, true});
    std::ostringstream out;
    log.write_csv(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("test,parameter,setting,result,kind"),
              std::string::npos);
    EXPECT_NE(text.find("t1,T_DQ,25.5,PASS,parametric"), std::string::npos);
    EXPECT_NE(text.find("t2,functional,0,FAIL,functional"),
              std::string::npos);
}

TEST(DatalogTest, TesterIntegration) {
    device::MemoryChipOptions opts;
    opts.noise_sigma_ns = 0.0;
    device::MemoryTestChip chip({}, opts);
    Tester tester(chip);
    tester.datalog().set_enabled(true);

    testgen::TestPattern p("dl");
    p.write(0, 0x1234);
    p.read(0);
    const testgen::Test test = testgen::make_test(std::move(p));
    const Parameter param = Parameter::data_valid_time();

    (void)tester.apply(test, param, 20.0);  // comfortably passing
    (void)tester.apply(test, param, 44.0);  // far beyond any trip: fails
    (void)tester.run_functional(test);

    ASSERT_EQ(tester.datalog().size(), 3u);
    EXPECT_EQ(tester.datalog().entry(0).test_name, "dl");
    EXPECT_TRUE(tester.datalog().entry(0).pass);
    EXPECT_DOUBLE_EQ(tester.datalog().entry(0).setting, 20.0);
    EXPECT_FALSE(tester.datalog().entry(1).pass);
    EXPECT_TRUE(tester.datalog().entry(2).functional);
}

TEST(DatalogTest, TesterDatalogOffCostsNothing) {
    device::MemoryTestChip chip;
    Tester tester(chip);
    testgen::TestPattern p("x");
    p.write(0, 0);
    const testgen::Test test = testgen::make_test(std::move(p));
    (void)tester.apply(test, Parameter::data_valid_time(), 20.0);
    EXPECT_EQ(tester.datalog().size(), 0u);
}

}  // namespace
}  // namespace cichar::ate
