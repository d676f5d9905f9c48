// The fitness engine's determinism contract: the hunt overlaps chromosome
// decoding with whole-slot measurements pending on the completion queue,
// yet the rendered report, the measurement ledger, the final checkpoint
// blob and the persisted trip-cache file must be byte-identical at any
// jobs x inflight combination — with fault injection and the measurement
// policy on too, and including a hunt killed with requests in flight and
// resumed under a different inflight depth.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ate/fault_injector.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"

namespace cichar::core {
namespace {

device::MemoryChipOptions noiseless() {
    device::MemoryChipOptions o;
    o.noise_sigma_ns = 0.0;
    return o;
}

struct HuntConfig {
    std::size_t jobs = 1;
    std::size_t inflight = 1;
    /// Warm replica slab size (kAutoSlab = the admission window, 0 = cold
    /// clones) — a pure perf knob the identity matrix sweeps too.
    std::size_t replica_slab = HuntParallelOptions::kAutoSlab;
    double realtime_fraction = 0.0;
    /// Fault injection with the measurement policy riding along.
    bool faults = false;
    std::string cache_file;
    std::string resume_blob;
    std::size_t abort_after_generation = 0;
};

struct HuntResult {
    WorstCaseReport report;
    std::string rendered;
    std::uint64_t applications = 0;
    std::string last_checkpoint;
};

OptimizerOptions hunt_options(const HuntConfig& config) {
    OptimizerOptions opts;
    opts.ga.population.size = 10;
    opts.ga.populations = 2;
    opts.ga.max_generations = 8;
    opts.ga.stagnation_limit = 4;
    opts.ga.max_restarts = 2;
    opts.ga.migration_interval = 3;
    opts.parallel.jobs = config.jobs;
    opts.parallel.inflight = config.inflight;
    opts.parallel.replica_slab = config.replica_slab;
    opts.cache.enabled = true;
    opts.cache.file = config.cache_file;
    opts.checkpoint.resume_blob = config.resume_blob;
    opts.checkpoint.abort_after_generation = config.abort_after_generation;
    opts.trip.policy.enabled = config.faults;
    return opts;
}

ate::FaultProfile fault_profile() {
    ate::FaultProfile profile;
    profile.transient_rate = 0.02;
    profile.transient_span_fraction = 0.2;
    profile.timeout_rate = 0.005;
    profile.stuck_rate = 0.002;
    profile.seed = 7;
    return profile;
}

HuntResult run_hunt(const HuntConfig& config) {
    HuntResult result;
    OptimizerOptions opts = hunt_options(config);
    opts.checkpoint.save = [&result](const std::string& blob) {
        result.last_checkpoint = blob;
    };

    device::MemoryTestChip chip({}, noiseless());
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = config.realtime_fraction;
    ate::Tester tester(chip, tester_options);
    ate::FaultInjector injector(config.faults ? fault_profile()
                                              : ate::FaultProfile::none());
    if (config.faults) tester.attach_fault_injector(&injector);
    util::Rng rng(2005);
    testgen::RandomGeneratorOptions generator;
    generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    const WorstCaseOptimizer optimizer(opts);

    result.report = optimizer.run_unseeded(tester,
                                           ate::Parameter::data_valid_time(),
                                           generator,
                                           Objective::kDriftToMinimum, rng);
    ReportInputs inputs;
    inputs.seed = 2005;
    inputs.hunt = &result.report;
    result.rendered = render_report(inputs);
    result.applications = tester.log().total().applications;
    return result;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string fresh_cache_path(const std::string& tag) {
    const std::string path = ::testing::TempDir() + "async_hunt_" + tag +
                             ".tripcache";
    std::remove(path.c_str());
    return path;
}

// Compares everything the byte-identity contract covers. Checkpoint
// blobs are only required to match between *cold* runs: a resumed leg
// re-serializes from restored state, which the existing checkpoint
// contract (HuntCheckpointTest) does not promise to be blob-identical —
// only result-identical.
void expect_identical(const HuntResult& actual, const HuntResult& reference,
                      bool compare_checkpoint = true) {
    EXPECT_EQ(actual.report.outcome.best_fitness,
              reference.report.outcome.best_fitness);
    EXPECT_EQ(actual.report.outcome.best.sequence,
              reference.report.outcome.best.sequence);
    EXPECT_EQ(actual.report.outcome.best.condition,
              reference.report.outcome.best.condition);
    EXPECT_EQ(actual.report.outcome.evaluations,
              reference.report.outcome.evaluations);
    EXPECT_EQ(actual.report.outcome.best_history,
              reference.report.outcome.best_history);
    EXPECT_EQ(actual.report.ate_measurements, reference.report.ate_measurements);
    EXPECT_EQ(actual.report.cache_stats.hits, reference.report.cache_stats.hits);
    EXPECT_EQ(actual.report.cache_stats.misses,
              reference.report.cache_stats.misses);
    EXPECT_EQ(actual.report.faults, reference.report.faults);
    EXPECT_EQ(actual.report.injected, reference.report.injected);
    EXPECT_EQ(actual.rendered, reference.rendered);
    EXPECT_EQ(actual.applications, reference.applications);
    if (compare_checkpoint) {
        EXPECT_EQ(actual.last_checkpoint, reference.last_checkpoint);
    }
}

TEST(AsyncHuntDeterminismTest, ByteIdenticalAcrossJobsAndInflight) {
    HuntConfig reference_config;
    reference_config.jobs = 1;
    reference_config.inflight = 1;
    reference_config.cache_file = fresh_cache_path("ref");
    const HuntResult reference = run_hunt(reference_config);
    ASSERT_FALSE(reference.last_checkpoint.empty());
    const std::string reference_cache = slurp(reference_config.cache_file);
    EXPECT_FALSE(reference_cache.empty());

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t inflight :
             {std::size_t{4}, std::size_t{16}}) {
            HuntConfig config;
            config.jobs = jobs;
            config.inflight = inflight;
            config.cache_file = fresh_cache_path(
                std::string("j").append(std::to_string(jobs)) + std::string("i").append(std::to_string(inflight)));
            const HuntResult async = run_hunt(config);
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " inflight=" + std::to_string(inflight));
            expect_identical(async, reference);
            EXPECT_EQ(async.report.inflight, inflight);
            // The persisted trip cache is part of the contract too: same
            // entries, same bytes.
            EXPECT_EQ(slurp(config.cache_file), reference_cache);
        }
    }
}

TEST(AsyncHuntDeterminismTest, FaultPolicyByteIdenticalAcrossJobsAndInflight) {
    // Fault forcing and the policy's screen/retry/majority-confirm flows
    // run inside the slot's job, so they ride the queue at the configured
    // depth like any other measurement — nothing falls back.
    HuntConfig reference_config;
    reference_config.faults = true;
    reference_config.cache_file = fresh_cache_path("fault_ref");
    const HuntResult reference = run_hunt(reference_config);
    ASSERT_FALSE(reference.last_checkpoint.empty());
    EXPECT_GT(reference.report.injected.injected(), 0u);
    EXPECT_GT(reference.report.faults.interventions(), 0u);
    const std::string reference_cache = slurp(reference_config.cache_file);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t inflight : {std::size_t{1}, std::size_t{16}}) {
            HuntConfig config;
            config.faults = true;
            config.jobs = jobs;
            config.inflight = inflight;
            config.cache_file = fresh_cache_path(
                "fault_j" + std::to_string(jobs) + "i" +
                std::to_string(inflight));
            const HuntResult run = run_hunt(config);
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " inflight=" + std::to_string(inflight));
            expect_identical(run, reference);
            EXPECT_EQ(run.report.inflight, inflight);
            EXPECT_EQ(slurp(config.cache_file), reference_cache);
        }
    }
}

TEST(AsyncHuntDeterminismTest, FaultPolicyKillAndResumeAcrossInflightDepths) {
    // Killed at depth 16 with fault/policy jobs in flight, resumed at
    // depth 4: the injector and policy state in the checkpoint carry over
    // and the hunt finishes byte-identical to an uninterrupted run.
    HuntConfig reference_config;
    reference_config.faults = true;
    reference_config.jobs = 2;
    const HuntResult reference = run_hunt(reference_config);

    HuntConfig abort_config;
    abort_config.faults = true;
    abort_config.jobs = 2;
    abort_config.inflight = 16;
    abort_config.abort_after_generation = 3;
    const HuntResult aborted = run_hunt(abort_config);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    HuntConfig resume_config;
    resume_config.faults = true;
    resume_config.jobs = 2;
    resume_config.inflight = 4;
    resume_config.resume_blob = aborted.last_checkpoint;
    const HuntResult resumed = run_hunt(resume_config);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference, /*compare_checkpoint=*/false);
}

TEST(AsyncHuntDeterminismTest, ByteIdenticalAcrossReplicaSlabSizes) {
    // The slab dimension of the identity matrix: forced cold clones
    // (slab 0), a deliberately undersized slab (2: recycles + transient
    // misses), and a roomy one (8) must all match the depth-1 cold-clone
    // reference — at inflight 1 and 16, jobs 1 and 4.
    HuntConfig reference_config;
    reference_config.jobs = 1;
    reference_config.inflight = 1;
    reference_config.replica_slab = 0;  // the pre-slab measurement path
    reference_config.cache_file = fresh_cache_path("slab_ref");
    const HuntResult reference = run_hunt(reference_config);
    const std::string reference_cache = slurp(reference_config.cache_file);

    for (const std::size_t slab :
         {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
        for (const std::size_t inflight : {std::size_t{1}, std::size_t{16}}) {
            for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
                HuntConfig config;
                config.jobs = jobs;
                config.inflight = inflight;
                config.replica_slab = slab;
                config.cache_file = fresh_cache_path(
                    std::string("s").append(std::to_string(slab)) + "i" +
                    std::to_string(inflight) + std::string("j").append(std::to_string(jobs)));
                const HuntResult warm = run_hunt(config);
                SCOPED_TRACE("slab=" + std::to_string(slab) +
                             " inflight=" + std::to_string(inflight) +
                             " jobs=" + std::to_string(jobs));
                expect_identical(warm, reference);
                EXPECT_EQ(slurp(config.cache_file), reference_cache);
                if (slab > 0) {
                    EXPECT_GT(warm.report.slab.recycles, 0u);
                }
            }
        }
    }
}

TEST(AsyncHuntDeterminismTest, KillAndResumeAcrossInflightDepths) {
    // Kill the hunt with requests pending at snapshot time, then
    // resume under a *different* inflight depth: the checkpoint
    // fingerprint deliberately excludes inflight (drain-before-checkpoint
    // means the blob never holds queue state), so the resumed hunt must
    // still finish byte-identical to an uninterrupted depth-1 run.
    HuntConfig reference_config;
    reference_config.jobs = 2;
    reference_config.inflight = 1;
    const HuntResult reference = run_hunt(reference_config);
    EXPECT_FALSE(reference.report.aborted);

    HuntConfig abort_config;
    abort_config.jobs = 2;
    abort_config.inflight = 8;
    abort_config.abort_after_generation = 3;
    const HuntResult aborted = run_hunt(abort_config);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    HuntConfig resume_config;
    resume_config.jobs = 2;
    resume_config.inflight = 4;
    resume_config.resume_blob = aborted.last_checkpoint;
    const HuntResult resumed = run_hunt(resume_config);
    EXPECT_FALSE(resumed.report.aborted);
    expect_identical(resumed, reference, /*compare_checkpoint=*/false);
}

TEST(AsyncHuntDeterminismTest, KillAndResumeAcrossSlabSizes) {
    // A hunt killed mid-flight on one slab size and resumed on another
    // (including slab off entirely) finishes byte-identical to an
    // uninterrupted run: the slab holds no hunt state a checkpoint would
    // need to carry.
    HuntConfig reference_config;
    reference_config.jobs = 2;
    reference_config.inflight = 1;
    const HuntResult reference = run_hunt(reference_config);

    HuntConfig abort_config;
    abort_config.jobs = 2;
    abort_config.inflight = 8;
    abort_config.replica_slab = 8;
    abort_config.abort_after_generation = 3;
    const HuntResult aborted = run_hunt(abort_config);
    EXPECT_TRUE(aborted.report.aborted);
    ASSERT_FALSE(aborted.last_checkpoint.empty());

    for (const std::size_t slab : {std::size_t{0}, std::size_t{2}}) {
        HuntConfig resume_config;
        resume_config.jobs = 2;
        resume_config.inflight = 4;
        resume_config.replica_slab = slab;
        resume_config.resume_blob = aborted.last_checkpoint;
        const HuntResult resumed = run_hunt(resume_config);
        SCOPED_TRACE("resume slab=" + std::to_string(slab));
        EXPECT_FALSE(resumed.report.aborted);
        expect_identical(resumed, reference, /*compare_checkpoint=*/false);
    }
}

TEST(AsyncHuntDeterminismTest, EmulatedLatencyDoesNotChangeResults) {
    // A small nonzero realtime_fraction exercises the deadline machinery
    // (each slot's completion ripens at its submit time plus the emulated
    // latency of its probes); it may not perturb the hunt.
    HuntConfig reference_config;
    reference_config.jobs = 2;
    reference_config.inflight = 1;
    const HuntResult reference = run_hunt(reference_config);

    HuntConfig emulated;
    emulated.jobs = 2;
    emulated.inflight = 8;
    emulated.realtime_fraction = 1e-4;
    const HuntResult async = run_hunt(emulated);
    expect_identical(async, reference);
}

}  // namespace
}  // namespace cichar::core
