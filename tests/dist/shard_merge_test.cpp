#include "dist/shard_merge.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "core/trip_cache.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "util/binio.hpp"

namespace cichar::dist {
namespace {

using lot::LotOptions;
using lot::LotResult;
using lot::LotRunner;

LotOptions fast_lot(std::size_t sites, std::size_t jobs) {
    LotOptions options;
    options.sites = sites;
    options.jobs = jobs;
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

/// A profile that quarantines and kills sites at this test scale, so the
/// merged artifacts carry nontrivial site-health state.
LotOptions faulted_lot(std::size_t sites, std::size_t jobs) {
    LotOptions options = fast_lot(sites, jobs);
    options.faults.transient_rate = 0.02;
    options.faults.transient_span_fraction = 0.2;
    options.faults.timeout_rate = 0.005;
    options.faults.site_death_rate = 0.002;
    options.faults.seed = 5;
    options.policy.enabled = true;
    options.policy.quarantine_after = 8;
    return options;
}

/// Runs `options` (optionally restricted to [begin, end)) and returns
/// the last checkpoint blob the runner emitted.
std::string run_for_blob(LotOptions options, std::size_t begin = 0,
                         std::size_t end = 0) {
    options.site_range_begin = begin;
    options.site_range_end = end;
    std::string last;
    options.checkpoint.save = [&last](const std::string& blob) {
        last = blob;
    };
    (void)LotRunner(options).run();
    return last;
}

TEST(ShardMergeTest, MergedBlobIsByteIdenticalToSingleProcessCheckpoint) {
    const LotOptions options = fast_lot(4, 2);
    const std::string reference = run_for_blob(options);
    const std::string shard0 = run_for_blob(options, 0, 2);
    const std::string shard1 = run_for_blob(options, 2, 4);
    ASSERT_FALSE(reference.empty());
    ASSERT_FALSE(shard0.empty());
    ASSERT_NE(shard0, shard1);

    MergeStats stats;
    EXPECT_EQ(merge_shard_checkpoints({shard0, shard1}, {}, &stats),
              reference);
    EXPECT_EQ(stats.shards, 2u);
    EXPECT_EQ(stats.sites, 4u);
    EXPECT_EQ(stats.empty_shards, 0u);

    // Merge order does not matter: sites are fused in index order.
    EXPECT_EQ(merge_shard_checkpoints({shard1, shard0}), reference);
}

TEST(ShardMergeTest, MergedLotReportMatchesSingleProcess) {
    LotOptions options = fast_lot(4, 2);
    const std::string full_render =
        lot::LotReport::build(LotRunner(options).run()).render();

    const std::string merged = merge_shard_checkpoints(
        {run_for_blob(options, 0, 2), run_for_blob(options, 2, 4)});
    options.checkpoint.resume_blob = merged;
    const LotResult resumed = LotRunner(options).run();
    ASSERT_TRUE(resumed.complete());
    for (const lot::SiteResult& site : resumed.sites) {
        EXPECT_TRUE(site.restored);
    }
    EXPECT_EQ(lot::LotReport::build(resumed).render(), full_render);
}

TEST(ShardMergeTest, RejectsOverlappingSiteRanges) {
    const LotOptions options = fast_lot(4, 1);
    const std::string shard0 = run_for_blob(options, 0, 2);
    const std::string overlapping = run_for_blob(options, 1, 3);
    try {
        (void)merge_shard_checkpoints({shard0, overlapping});
        FAIL() << "overlapping ranges must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("overlapping"),
                  std::string::npos);
    }
}

TEST(ShardMergeTest, EmptyShardContributesNothing) {
    const LotOptions options = fast_lot(4, 2);
    const std::string reference = run_for_blob(options);
    const std::string fingerprint = LotRunner(options).fingerprint();
    const std::string empty = core::encode_checkpoint(
        fingerprint, lot::encode_finished_sites({}));

    MergeStats stats;
    EXPECT_EQ(merge_shard_checkpoints({run_for_blob(options, 0, 2), empty,
                                       run_for_blob(options, 2, 4)},
                                      fingerprint, &stats),
              reference);
    EXPECT_EQ(stats.shards, 3u);
    EXPECT_EQ(stats.empty_shards, 1u);
}

TEST(ShardMergeTest, RejectsFingerprintMismatch) {
    const LotOptions options = fast_lot(4, 1);
    LotOptions other_lot = options;
    other_lot.seed = 78;
    const std::string shard0 = run_for_blob(options, 0, 2);
    const std::string foreign = run_for_blob(other_lot, 2, 4);

    // Shards of two different lot configurations never fuse...
    EXPECT_THROW((void)merge_shard_checkpoints({shard0, foreign}),
                 std::runtime_error);
    // ...and an explicit expected fingerprint rejects even the first blob.
    EXPECT_THROW(
        (void)merge_shard_checkpoints({shard0}, "lot:other-config"),
        std::runtime_error);
}

TEST(ShardMergeTest, RejectsCorruptAndNonCheckpointBlobs) {
    const LotOptions options = fast_lot(2, 1);
    std::string blob = run_for_blob(options, 0, 1);

    EXPECT_THROW((void)merge_shard_checkpoints({}), std::runtime_error);
    EXPECT_THROW((void)merge_shard_checkpoints({"not a checkpoint"}),
                 std::runtime_error);

    blob[blob.size() - 5] ^= 0x1;  // payload/checksum corruption
    EXPECT_THROW((void)merge_shard_checkpoints({blob}), std::runtime_error);
}

TEST(ShardMergeTest, FaultedShardsPreserveSiteHealthSections) {
    LotOptions options = faulted_lot(4, 2);
    const LotResult full = LotRunner(options).run();
    const std::string full_render = lot::LotReport::build(full).render();
    // The profile must actually have degraded sites, or this test checks
    // nothing.
    std::size_t unhealthy = 0;
    for (const lot::SiteResult& site : full.sites) {
        if (site.status != lot::SiteStatus::kCompleted) ++unhealthy;
    }
    ASSERT_GT(unhealthy, 0u)
        << "fault profile chosen to degrade at least one site";

    const std::string merged = merge_shard_checkpoints(
        {run_for_blob(options, 0, 2), run_for_blob(options, 2, 4)});
    EXPECT_EQ(merged, run_for_blob(options));

    options.checkpoint.resume_blob = merged;
    const std::string merged_render =
        lot::LotReport::build(LotRunner(options).run()).render();
    EXPECT_EQ(merged_render, full_render);
    EXPECT_NE(merged_render.find("site health"), std::string::npos);
}

// --- trip-cache fusion ------------------------------------------------

core::TripCacheKey cache_key(std::uint64_t seed) {
    core::TripCacheKey key;
    key.recipe.cycles = 500;
    key.recipe.write_fraction = 0.5;
    key.recipe.seed = seed;
    key.conditions.vdd_volts = 1.8;
    return key;
}

core::TripPointRecord cache_record(double trip) {
    core::TripPointRecord record;
    record.test_name = "t";
    record.trip_point = trip;
    record.found = true;
    record.measurements = 7;
    return record;
}

std::string write_cache(const std::string& name,
                        const std::vector<std::uint64_t>& seeds,
                        double trip, const std::string& identity) {
    core::TripPointCache cache(64);
    for (const std::uint64_t seed : seeds) {
        cache.insert(cache_key(seed), cache_record(trip));
    }
    const std::string path = testing::TempDir() + name;
    EXPECT_TRUE(util::atomic_write_file(path, cache.save(identity)));
    return path;
}

TEST(ShardMergeTest, TripCacheFusionUnionsShardCaches) {
    const std::string a = write_cache("merge_a.tpc", {1, 2, 3}, 20.0, "T_DQ");
    const std::string b = write_cache("merge_b.tpc", {3, 4}, 30.0, "T_DQ");
    const std::string out = testing::TempDir() + "merge_fused.tpc";

    EXPECT_EQ(merge_trip_cache_files({a, b}, out), "T_DQ");

    core::TripPointCache fused(64);
    const std::optional<std::string> bytes = util::read_file(out);
    ASSERT_TRUE(bytes.has_value());
    ASSERT_TRUE(fused.load(*bytes, "T_DQ"));
    EXPECT_EQ(fused.size(), 4u);  // key 3 collided
    for (const std::uint64_t seed : {1u, 2u, 4u}) {
        ASSERT_NE(fused.lookup(cache_key(seed)), nullptr);
    }
    // Later-merged shard wins the collision.
    const core::TripPointRecord* collided = fused.lookup(cache_key(3));
    ASSERT_NE(collided, nullptr);
    EXPECT_DOUBLE_EQ(collided->trip_point, 30.0);
}

TEST(ShardMergeTest, TripCacheFusionRejectsMixedIdentities) {
    const std::string a = write_cache("merge_ia.tpc", {1}, 20.0, "T_DQ");
    const std::string b = write_cache("merge_ib.tpc", {2}, 20.0, "Fmax");
    const std::string out = testing::TempDir() + "merge_bad.tpc";
    EXPECT_THROW((void)merge_trip_cache_files({a, b}, out),
                 std::runtime_error);
    EXPECT_THROW((void)merge_trip_cache_files({}, out), std::runtime_error);
    EXPECT_THROW(
        (void)merge_trip_cache_files({out + ".missing"}, out),
        std::runtime_error);
}

}  // namespace
}  // namespace cichar::dist
