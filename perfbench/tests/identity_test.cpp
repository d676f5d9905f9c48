// The benchmark's own identity checks, run once by `run.py --smoke`:
// its kill-and-resume path must reproduce the uninterrupted hunt byte for
// byte, and its lot configuration must report identically at any thread
// count. Both use the quick tier of the workloads the benchmark times.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "workloads.hpp"

namespace perfbench {
namespace {

std::string scratch_dir() {
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        ("perfbench_" + std::string(testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(PerfbenchIdentity, KillAndResumeMatchesUninterruptedHunt) {
    const std::string dir = scratch_dir();
    const std::uint64_t seed = derive_seed(2005, 0);
    const CheckpointedHunt whole = run_checkpointed_hunt(Tier::kQuick, seed, false, dir);
    const CheckpointedHunt resumed = run_checkpointed_hunt(Tier::kQuick, seed, true, dir);
    ASSERT_EQ(whole.outcome.failure, "");
    ASSERT_EQ(resumed.outcome.failure, "");
    EXPECT_TRUE(resumed.aborted_first_leg);
    EXPECT_FALSE(whole.rendered.empty());
    EXPECT_EQ(resumed.rendered, whole.rendered);
    EXPECT_EQ(resumed.outcome.applications, whole.outcome.applications);
    EXPECT_EQ(resumed.outcome.tester_s, whole.outcome.tester_s);
    EXPECT_EQ(resumed.outcome.wcr, whole.outcome.wcr);
    std::filesystem::remove_all(dir);
}

TEST(PerfbenchIdentity, LotReportIdenticalAtJobs1And4) {
    const std::uint64_t seed = derive_seed(2005, 1);
    const std::string serial = render_lot(Tier::kQuick, seed, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(render_lot(Tier::kQuick, seed, 4), serial);
}

}  // namespace
}  // namespace perfbench
