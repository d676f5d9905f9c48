// Lot-wide replica hunts through the shared measurement ring: every
// inflight x jobs x slab x ring-sharing configuration must render a
// byte-identical LotReport and measurement ledger — including a lot
// killed mid-run and resumed under a different ring depth — and none of
// those knobs enters the checkpoint fingerprint.
#include "lot/lot_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "lot/lot_report.hpp"
#include "util/thread_pool.hpp"

namespace cichar::lot {
namespace {

LotOptions replica_lot(std::size_t sites, std::size_t jobs,
                       std::size_t inflight) {
    LotOptions options;
    options.sites = sites;
    options.jobs = jobs;
    options.inflight = inflight;
    options.seed = 77;
    options.characterizer.generator.condition_bounds =
        testgen::ConditionBounds::fixed_nominal();
    options.characterizer.learner.training_tests = 24;
    options.characterizer.learner.max_rounds = 1;
    options.characterizer.learner.committee.members = 2;
    options.characterizer.learner.committee.hidden_layers = {8};
    options.characterizer.learner.committee.train.max_epochs = 40;
    options.characterizer.optimizer.ga.population.size = 8;
    options.characterizer.optimizer.ga.populations = 2;
    options.characterizer.optimizer.ga.max_generations = 4;
    options.characterizer.optimizer.nn_candidates = 80;
    options.characterizer.optimizer.nn_seed_count = 4;
    return options;
}

struct LotRun {
    std::string report;
    std::string ledger;
};

LotRun run_lot(const LotOptions& options) {
    const LotResult result = LotRunner(options).run();
    LotRun run;
    run.report = LotReport::build(result).render();
    run.ledger = result.merged_log.report();
    return run;
}

TEST(LotReplicaTest, ReportByteIdenticalAcrossDepthJobsSlabAndSharing) {
    // Depth 1 on one worker: the reference discipline.
    const LotRun reference = run_lot(replica_lot(3, 1, 1));

    struct Config {
        std::size_t jobs;
        std::size_t inflight;
        std::size_t slab;
        bool shared;
    };
    const Config configs[] = {
        {1, 16, core::HuntParallelOptions::kAutoSlab, true},
        {4, 16, core::HuntParallelOptions::kAutoSlab, true},
        {4, 16, core::HuntParallelOptions::kAutoSlab, false},  // ablation
        {4, 16, 0, true},  // cold clones through the shared ring
        {2, 4, 8, true},
        {4, 1, 2, true},  // depth 1 on four workers
    };
    for (const Config& config : configs) {
        LotOptions options = replica_lot(3, config.jobs, config.inflight);
        options.replica_slab = config.slab;
        options.shared_ring = config.shared;
        SCOPED_TRACE("jobs=" + std::to_string(config.jobs) +
                     " inflight=" + std::to_string(config.inflight) +
                     " slab=" + std::to_string(config.slab) +
                     " shared=" + std::to_string(config.shared));
        const LotRun run = run_lot(options);
        EXPECT_EQ(run.report, reference.report);
        EXPECT_EQ(run.ledger, reference.ledger);
    }
}

TEST(LotReplicaTest, StopAndGoResumeAcrossRingDepths) {
    // Kill after two sites under a deep shared ring, resume with blocking
    // replicas: the checkpoint carries no ring or slab state, so the
    // fused lot must match an uninterrupted run at yet another depth.
    const LotRun reference = run_lot(replica_lot(4, 2, 8));

    LotOptions first_leg = replica_lot(4, 2, 16);
    first_leg.checkpoint.max_sites_per_run = 2;
    std::string checkpoint;
    first_leg.checkpoint.save = [&checkpoint](const std::string& blob) {
        checkpoint = blob;
    };
    const LotResult partial = LotRunner(first_leg).run();
    EXPECT_FALSE(partial.complete());
    ASSERT_FALSE(checkpoint.empty());

    LotOptions second_leg = replica_lot(4, 2, 1);
    second_leg.checkpoint.resume_blob = checkpoint;
    const LotResult fused = LotRunner(second_leg).run();
    ASSERT_TRUE(fused.complete());
    EXPECT_EQ(LotReport::build(fused).render(), reference.report);
    EXPECT_EQ(fused.merged_log.report(), reference.ledger);
}

TEST(LotReplicaTest, PerfKnobsStayOutOfTheFingerprint) {
    // Depth, jobs, slab size, and ring sharing change speed, never
    // results, so a checkpoint resumes across all of them.
    const std::string reference =
        LotRunner(replica_lot(3, 1, 1)).fingerprint();
    LotOptions deep = replica_lot(3, 4, 16);
    deep.replica_slab = 0;
    deep.shared_ring = false;
    EXPECT_EQ(LotRunner(deep).fingerprint(), reference);
    EXPECT_EQ(reference.find("replica"), std::string::npos);
}

TEST(LotReplicaTest, SharedRingFloorsOnlyTheSitesThatRunAtOnce) {
    // 8 sites on 2 workers: only 2 floors are ever held, so an inflight
    // budget of 16 leaves 14 credits to borrow.
    EXPECT_EQ(shared_ring_credits(16, 8, 2), 14u);
    EXPECT_EQ(shared_ring_credits(16, 8, 8), 8u);
    EXPECT_EQ(shared_ring_credits(16, 1, 4), 15u);  // one site left to run
    EXPECT_EQ(shared_ring_credits(4, 8, 8), 0u);    // budget below the floors
    EXPECT_EQ(shared_ring_credits(16, 8, 0),
              16 - std::min<std::size_t>(8, util::ThreadPool::resolved_threads(0)));
}

TEST(LotReplicaTest, PreviousGeneratorCheckpointIsRefused) {
    // "lot:v2" checkpoints hold sites measured on the patterns of the
    // previous random test generator.
    LotOptions options = replica_lot(2, 1, 1);
    std::string legacy = LotRunner(options).fingerprint();
    ASSERT_EQ(legacy.rfind("lot:v3:", 0), 0u);
    legacy.replace(0, 7, "lot:v2:");
    options.checkpoint.resume_blob =
        core::encode_checkpoint(legacy, encode_finished_sites({}));
    EXPECT_THROW((void)LotRunner(options).run(), std::runtime_error);
}

TEST(LotReplicaTest, ZeroInflightIsRejected) {
    EXPECT_THROW((void)LotRunner(replica_lot(2, 1, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace cichar::lot
