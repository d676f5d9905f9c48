#include "ate/measurement_log.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace cichar::ate {
namespace {

MeasurementLog make_log(
    const std::vector<std::pair<std::string, std::uint64_t>>& entries) {
    MeasurementLog log;
    for (const auto& [phase, cycles] : entries) {
        log.set_phase(phase);
        log.record(cycles, static_cast<double>(cycles) * 0.001);
    }
    return log;
}

TEST(MeasurementLogMergeTest, CombinesSameNamedPhases) {
    MeasurementLog a = make_log({{"learning", 100}, {"ga", 50}});
    const MeasurementLog b = make_log({{"learning", 25}});

    a.merge(b);
    EXPECT_EQ(a.phase_counters("learning").applications, 2u);
    EXPECT_EQ(a.phase_counters("learning").vector_cycles, 125u);
    EXPECT_EQ(a.phase_counters("ga").applications, 1u);
    EXPECT_EQ(a.total().applications, 3u);
    EXPECT_EQ(a.total().vector_cycles, 175u);
    EXPECT_DOUBLE_EQ(a.total().tester_seconds, 0.175);
}

TEST(MeasurementLogMergeTest, AdoptsNewPhases) {
    MeasurementLog a = make_log({{"learning", 10}});
    const MeasurementLog b = make_log({{"shmoo", 7}});

    a.merge(b);
    const std::vector<std::string> phases = a.phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(a.phase_counters("shmoo").vector_cycles, 7u);
}

TEST(MeasurementLogMergeTest, MergeOrderDoesNotChangeThePhaseSet) {
    // Stable concatenation: phases render name-ordered, so merging the
    // same site ledgers in any grouping yields the identical report.
    MeasurementLog ab = make_log({{"ga", 3}});
    ab.merge(make_log({{"learning", 5}, {"shmoo", 2}}));

    MeasurementLog ba = make_log({{"shmoo", 2}});
    ba.merge(make_log({{"ga", 3}}));
    ba.merge(make_log({{"learning", 5}}));

    EXPECT_EQ(ab.phases(), ba.phases());
    EXPECT_EQ(ab.report(), ba.report());
    EXPECT_EQ(ab.total().applications, ba.total().applications);
}

TEST(MeasurementLogMergeTest, MergingEmptyIsANoOp) {
    MeasurementLog a = make_log({{"learning", 10}});
    const std::string before = a.report();
    a.merge(MeasurementLog{});
    EXPECT_EQ(a.report(), before);
}

TEST(MeasurementLogMergeTest, KeepsOwnActivePhase) {
    MeasurementLog a;
    a.set_phase("mine");
    MeasurementLog b;
    b.set_phase("theirs");
    b.record(1, 0.5);
    a.merge(b);
    EXPECT_EQ(a.phase(), "mine");
    EXPECT_EQ(a.phase_counters("theirs").applications, 1u);
}

TEST(MeasurementLogMergeTest, SelfMergeDoublesEveryCounter) {
    MeasurementLog a = make_log({{"learning", 10}, {"ga", 4}});
    a.merge(a);
    EXPECT_EQ(a.phase_counters("learning").applications, 2u);
    EXPECT_EQ(a.phase_counters("learning").vector_cycles, 20u);
    EXPECT_EQ(a.phase_counters("ga").vector_cycles, 8u);
    EXPECT_EQ(a.total().applications, 4u);
    EXPECT_EQ(a.phases().size(), 2u);
}

TEST(MeasurementLogMergeTest, MergeIntoEmptyEqualsSource) {
    const MeasurementLog b = make_log({{"learning", 5}, {"shmoo", 2}});
    MeasurementLog empty;
    empty.merge(b);
    EXPECT_EQ(empty.report(), b.report());
    EXPECT_EQ(empty.total().vector_cycles, b.total().vector_cycles);
}

TEST(MeasurementLogMergeTest, PhaseWithNoRecordsIsNotInvented) {
    // set_phase alone creates no ledger entry, so merging a log that only
    // armed a phase (a site that died before its first measurement)
    // changes nothing.
    MeasurementLog b;
    b.set_phase("armed-but-unused");
    MeasurementLog a = make_log({{"learning", 1}});
    const std::string before = a.report();
    a.merge(b);
    EXPECT_EQ(a.report(), before);
    ASSERT_EQ(a.phases().size(), 1u);
}

TEST(MeasurementLogMergeTest, SaveLoadRoundTripAfterMerge) {
    // The lot checkpoint persists merged site ledgers; the round trip
    // must be bit-exact so a resumed lot re-renders the same report.
    MeasurementLog a = make_log({{"learning", 100}, {"ga", 50}});
    a.merge(make_log({{"ga", 7}, {"shmoo", 3}}));
    std::string bytes;
    a.save(bytes);
    MeasurementLog loaded;
    util::ByteReader in(bytes);
    loaded.load(in);
    EXPECT_EQ(loaded.report(), a.report());
    EXPECT_EQ(loaded.total().applications, a.total().applications);
    EXPECT_DOUBLE_EQ(loaded.total().tester_seconds, a.total().tester_seconds);
}

TEST(MeasurementLogMergeTest, LoadRefusesForgedPhaseCount) {
    // A phase count larger than the bytes left could hold is refused
    // before any phase is read, and the target log keeps its state.
    const MeasurementLog original = make_log({{"ga", 5}});
    std::string bytes;
    util::put_string(bytes, "ga");
    util::put_u64(bytes, 1ULL << 40);
    bytes.append(64, '\0');
    MeasurementLog loaded = original;
    util::ByteReader in(bytes);
    EXPECT_THROW(loaded.load(in), std::runtime_error);
    EXPECT_EQ(loaded.report(), original.report());
}

}  // namespace
}  // namespace cichar::ate
