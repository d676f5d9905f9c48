#include "workloads.hpp"

#include <cstdio>
#include <exception>
#include <optional>
#include <sstream>

#include "ate/tester.hpp"
#include "core/characterizer.hpp"
#include "core/checkpoint.hpp"
#include "core/nn_test_generator.hpp"
#include "core/report.hpp"
#include "device/memory_chip.hpp"
#include "lot/lot_report.hpp"
#include "lot/lot_runner.hpp"
#include "testgen/features.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace core = cichar::core;
namespace ate = cichar::ate;
namespace device = cichar::device;
namespace lot = cichar::lot;
namespace testgen = cichar::testgen;
namespace util = cichar::util;

namespace {

/// `cichar hunt` / `cichar lot` defaults: random tests at the nominal
/// operating point (T_DQ at 1.8 V).
core::CharacterizerOptions cli_defaults() {
    core::CharacterizerOptions options;
    options.generator.condition_bounds = testgen::ConditionBounds::fixed_nominal();
    return options;
}

/// `cichar hunt --jobs J` (40 generations, 4 populations, trip cache on).
/// J == 1 is the serial in-situ engine; J > 1 replica fitness at
/// inflight 1. The quick tier shrinks learning and the GA.
core::CharacterizerOptions hunt_options(Tier tier, std::size_t jobs) {
    core::CharacterizerOptions options = cli_defaults();
    options.optimizer.ga.max_generations = tier == Tier::kQuick ? 6 : 40;
    options.optimizer.ga.populations = tier == Tier::kQuick ? 2 : 4;
    if (tier == Tier::kQuick) options.learner.training_tests = 40;
    options.learner.committee.jobs = jobs;
    options.optimizer.parallel.enabled = jobs != 1;
    options.optimizer.parallel.jobs = jobs;
    options.optimizer.cache.enabled = true;
    return options;
}

constexpr double kLotRealtimeFraction = 0.35;

/// `cichar lot --jobs J --inflight 16` (shared ring) with 35% of modeled
/// tester time slept as emulated ATE latency.
lot::LotOptions lot_options(Tier tier, std::size_t jobs, std::uint64_t seed) {
    lot::LotOptions options;
    options.sites = tier == Tier::kQuick ? 2 : 8;
    options.jobs = jobs;
    options.inflight = 16;
    options.shared_ring = true;
    options.seed = seed;
    options.characterizer = cli_defaults();
    options.characterizer.learner.training_tests = tier == Tier::kQuick ? 30 : 80;
    options.characterizer.optimizer.ga.max_generations = tier == Tier::kQuick ? 4 : 15;
    options.characterizer.optimizer.ga.populations = 2;
    options.tester.realtime_fraction = kLotRealtimeFraction;
    return options;
}

CampaignOutcome outcome_of(const ate::MeasurementLog& log, double wcr) {
    CampaignOutcome outcome;
    outcome.applications = log.total().applications;
    outcome.tester_s = log.total().tester_seconds;
    outcome.wcr = wcr;
    return outcome;
}

/// Runs one campaign; an exception it throws becomes a failed campaign,
/// not a crashed run.
template <typename Campaign>
CampaignOutcome guarded(Campaign&& campaign) {
    try {
        return campaign();
    } catch (const std::exception& e) {
        CampaignOutcome outcome;
        outcome.failure = std::string("threw: ") + e.what();
        return outcome;
    }
}

double device_busy_s(const DeviceCounters& counters) {
    return 1e-9 * static_cast<double>(counters.passes_ns.load());
}

/// Report-level counters every hunt exposes.
void add_report(LayerTrace& trace, const core::WorstCaseReport& report) {
    trace.evaluations += report.outcome.evaluations;
    trace.restarts += report.outcome.restarts;
    trace.cache_hits += report.cache_stats.hits;
    trace.cache_misses += report.cache_stats.misses;
    trace.slab_acquires += report.slab.acquires;
    trace.slab_recycles += report.slab.recycles;
}

/// Replays the NN seeding step (candidate scoring) and the pattern
/// expansion / feature extraction of its suggestions on a campaign's own
/// learned model. Registry metrics are paused so the replay does not
/// count as workload activity.
void replay_model(LayerTrace& trace, const core::LearnedModel& model,
                  const core::OptimizerOptions& optimizer, std::uint64_t seed,
                  util::ThreadPool* pool) {
    const Clock::time_point replay_start = Clock::now();
    util::telemetry::set_metrics_enabled(false);
    const core::NnTestGenerator generator(model);
    util::Rng rng(seed);
    core::ScoringOptions scoring;
    scoring.jobs = pool != nullptr ? pool->thread_count() : 1;
    scoring.batch = optimizer.nn_score_batch;
    scoring.pool = pool;
    Clock::time_point start = Clock::now();
    const std::vector<core::TestSuggestion> suggestions = generator.suggest(
        optimizer.nn_candidates, optimizer.nn_seed_count, rng, scoring);
    trace.nn_score_s += seconds_since(start);
    ++trace.nn_score_calls;

    const testgen::RandomTestGenerator expander(model.generator_options());
    std::vector<testgen::Test> tests;
    tests.reserve(suggestions.size());
    start = Clock::now();
    for (const core::TestSuggestion& s : suggestions) {
        tests.push_back(expander.make_test(s.recipe, s.conditions));
    }
    trace.expand_ns += 1e9 * seconds_since(start);
    trace.expand_calls += tests.size();

    start = Clock::now();
    for (const testgen::Test& test : tests) {
        (void)testgen::extract_features(test, model.generator_options().condition_bounds);
    }
    trace.features_ns += 1e9 * seconds_since(start);
    trace.features_calls += tests.size();
    util::telemetry::set_metrics_enabled(true);
    trace.replay_s += seconds_since(replay_start);
}

/// One die on one tester. Traced rigs put the TimedDut decorator between
/// them; timed rigs measure the bare device.
struct Rig {
    explicit Rig(DeviceCounters* counters) : tester(dut(counters)) {}
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    device::MemoryTestChip chip;
    std::optional<TimedDut> timed;
    ate::Tester tester;  // declared last: borrows chip or timed

private:
    device::DeviceUnderTest& dut(DeviceCounters* counters) {
        if (counters == nullptr) return chip;
        timed.emplace(chip, *counters);
        return *timed;
    }
};

/// Rendered hunt result: report, tester ledger and worst-case database.
std::string render_hunt(std::uint64_t seed, const core::WorstCaseReport& report,
                        const ate::Tester& tester) {
    core::ReportInputs inputs;
    inputs.seed = seed;
    inputs.hunt = &report;
    inputs.ledger = &tester.log();
    std::ostringstream db;
    report.database.save(db);
    return core::render_report(inputs) + db.str();
}

std::unique_ptr<util::ThreadPool> replay_pool(std::size_t jobs) {
    return jobs > 1 ? std::make_unique<util::ThreadPool>(jobs) : nullptr;
}

// ---------------------------------------------------------------------

class HuntWorkload final : public Workload {
public:
    explicit HuntWorkload(Tier tier)
        : tier_(tier), options_(hunt_options(tier, kJobs)),
          batch_(tier == Tier::kQuick ? 2 : 8) {}

    std::size_t counted_batches() const override { return tier_ == Tier::kQuick ? 1 : 6; }
    std::size_t jobs() const override { return kJobs; }

    void warm_up(std::uint64_t seed) override {
        (void)guarded([&] { return run_one(seed, nullptr); });
    }

    std::vector<CampaignOutcome> run_batch(std::uint64_t seed,
                                           LayerTrace* trace) override {
        std::vector<CampaignOutcome> outcomes;
        for (std::size_t i = 0; i < batch_; ++i) {
            outcomes.push_back(
                guarded([&] { return run_one(derive_seed(seed, i), trace); }));
        }
        return outcomes;
    }

private:
    // Two workers, not four: on a 4-vCPU VM shared with other tenants,
    // CPU steal slows a hunt that occupies every vCPU up to twice as much
    // as one on two, so a four-worker campaigns_per_s spreads past its
    // bound from run to run.
    static constexpr std::size_t kJobs = 2;

    CampaignOutcome run_one(std::uint64_t seed, LayerTrace* trace) {
        const Clock::time_point campaign_start = Clock::now();
        Rig rig(trace != nullptr ? &trace->device : nullptr);
        ate::Tester& tester = rig.tester;
        core::CharacterizerOptions options = options_;
        if (trace != nullptr) {
            options.optimizer.on_generation = [trace](const core::HuntProgress&) {
                trace->generations.tick(0);
            };
        }
        const ate::Parameter param = ate::Parameter::data_valid_time();
        const core::DeviceCharacterizer characterizer(tester, param, options);
        util::Rng rng(seed);

        const double busy_before = trace ? device_busy_s(trace->device) : 0.0;
        Clock::time_point start = Clock::now();
        const core::LearnResult learned = characterizer.learn(rng);
        const double learn_s = seconds_since(start);
        const double busy_learn =
            trace ? device_busy_s(trace->device) - busy_before : 0.0;

        if (trace != nullptr) trace->generations.start(0);
        start = Clock::now();
        const core::WorstCaseReport report = characterizer.optimize(learned.model, rng);
        const double optimize_s = seconds_since(start);

        CampaignOutcome outcome = outcome_of(tester.log(), report.worst_record.wcr);
        if (report.aborted) {
            outcome.failure = "hunt aborted";
        } else if (!report.worst_record.found) {
            outcome.failure = "no worst case found";
        } else if (report.ate_measurements !=
                   tester.log().phase_counters("ga-optimization").applications) {
            // The report counts growth of the log's total; the phase ledger
            // is kept apart from it.
            outcome.failure = "hunt measurement count disagrees with tester log";
        }
        if (trace != nullptr) {
            trace->campaign_s += seconds_since(campaign_start);
            trace->learn_s += learn_s;
            trace->learn_device_s += busy_learn;
            trace->optimize_s += optimize_s;
            add_report(*trace, report);
            if (!pool_) pool_ = replay_pool(kJobs);
            replay_model(*trace, learned.model, options_.optimizer, seed, pool_.get());
        }
        return outcome;
    }

    Tier tier_;
    core::CharacterizerOptions options_;
    std::size_t batch_;
    std::unique_ptr<util::ThreadPool> pool_;
};

// ---------------------------------------------------------------------

class LotWorkload final : public Workload {
public:
    explicit LotWorkload(Tier tier) : tier_(tier) {}

    std::size_t counted_batches() const override { return tier_ == Tier::kQuick ? 1 : 10; }
    std::size_t jobs() const override { return kJobs; }
    double realtime_fraction() const override { return kLotRealtimeFraction; }

    /// A one-site lot of the same configuration.
    void warm_up(std::uint64_t seed) override {
        lot::LotOptions options = lot_options(tier_, kJobs, seed);
        options.sites = 1;
        try {
            (void)lot::LotRunner(options).run();
        } catch (const std::exception&) {
            // The timed lots fail the same way and count it.
        }
    }

    /// One lot; if it throws, every site counts as a failed campaign.
    std::vector<CampaignOutcome> run_batch(std::uint64_t seed,
                                           LayerTrace* trace) override {
        try {
            return run_lot(seed, trace);
        } catch (const std::exception& e) {
            CampaignOutcome failed;
            failed.failure = std::string("lot threw: ") + e.what();
            return std::vector<CampaignOutcome>(lot_options(tier_, kJobs, seed).sites,
                                                failed);
        }
    }

private:
    // Two workers for the same reason as the hunt; with 16 requests in
    // flight the lot's wall is still set by overlapped tester waits.
    static constexpr std::size_t kJobs = 2;

    std::vector<CampaignOutcome> run_lot(std::uint64_t seed, LayerTrace* trace) {
        lot::LotOptions options = lot_options(tier_, kJobs, seed);
        std::vector<double> done_s;  // on_progress calls are serialized
        const Clock::time_point start = Clock::now();
        if (trace != nullptr) {
            trace->generations.forget();
            options.on_generation = [trace](std::size_t site,
                                            const core::HuntProgress&) {
                trace->generations.tick(site);
            };
            options.on_progress = [&done_s, start](std::size_t, std::size_t) {
                done_s.push_back(seconds_since(start));
            };
        }
        const lot::LotResult result = lot::LotRunner(options).run();

        std::vector<CampaignOutcome> outcomes;
        for (const lot::SiteResult& site : result.sites) {
            const bool found = site.outcomes.size() == 1 && site.outcomes[0].worst.found;
            CampaignOutcome outcome =
                outcome_of(site.log, found ? site.outcomes[0].worst.wcr : 0.0);
            if (site.status != lot::SiteStatus::kCompleted) {
                outcome.failure = std::string("site ") + lot::to_string(site.status);
            } else if (!found) {
                outcome.failure = "site has no found worst record";
            }
            outcomes.push_back(std::move(outcome));
        }
        if (trace != nullptr) {
            const double p50 = quantile(done_s, 0.5);
            trace->lot_site_done_p50_s.push_back(p50);
            trace->lot_tail_s.push_back(quantile(done_s, 1.0) - p50);
            if (!pool_) pool_ = replay_pool(kJobs);
            for (const lot::SiteResult& site : result.sites) {
                if (site.campaigns.empty()) continue;
                const core::ParameterCampaign& campaign = site.campaigns[0];
                add_report(*trace, campaign.report);
                replay_model(*trace, campaign.learned.model,
                             options.characterizer.optimizer,
                             derive_seed(seed, site.site), pool_.get());
            }
        }
        return outcomes;
    }

    Tier tier_;
    std::unique_ptr<util::ThreadPool> pool_;
};

// ---------------------------------------------------------------------

class CheckpointWorkload final : public Workload {
public:
    CheckpointWorkload(Tier tier, std::string scratch_dir)
        : tier_(tier), scratch_dir_(std::move(scratch_dir)),
          batch_(tier == Tier::kQuick ? 2 : 4) {}

    std::size_t counted_batches() const override { return tier_ == Tier::kQuick ? 1 : 7; }
    std::size_t jobs() const override { return 1; }

    void warm_up(std::uint64_t seed) override {
        (void)run_checkpointed_hunt(tier_, seed, true, scratch_dir_);
    }

    std::vector<CampaignOutcome> run_batch(std::uint64_t seed,
                                           LayerTrace* trace) override {
        std::vector<CampaignOutcome> outcomes;
        for (std::size_t i = 0; i < batch_; ++i) {
            outcomes.push_back(run_checkpointed_hunt(tier_, derive_seed(seed, i),
                                                     true, scratch_dir_, trace)
                                   .outcome);
        }
        return outcomes;
    }

private:
    Tier tier_;
    std::string scratch_dir_;
    std::size_t batch_;
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    util::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
    return rng();
}

std::unique_ptr<Workload> make_workload(const std::string& name, Tier tier,
                                        const std::string& scratch_dir) {
    if (name == "hunt") return std::make_unique<HuntWorkload>(tier);
    if (name == "lot_latency") return std::make_unique<LotWorkload>(tier);
    if (name == "hunt_checkpoint") {
        return std::make_unique<CheckpointWorkload>(tier, scratch_dir);
    }
    return nullptr;
}

CheckpointedHunt run_checkpointed_hunt(Tier tier, std::uint64_t seed, bool kill,
                                       const std::string& scratch_dir,
                                       LayerTrace* trace) {
    const Clock::time_point campaign_start = Clock::now();
    const std::string path =
        scratch_dir + "/hunt-" + std::to_string(seed) + ".ckpt";
    const std::string fingerprint = "perfbench:hunt_checkpoint:seed=" +
                                    std::to_string(seed) + ":tier=" +
                                    (tier == Tier::kQuick ? "quick" : "full");
    const ate::Parameter param = ate::Parameter::data_valid_time();
    DeviceCounters* counters = trace != nullptr ? &trace->device : nullptr;
    bool write_failed = false;

    // Each leg is one process lifetime of `cichar hunt --checkpoint`: a
    // fresh die, tester and optimizer that writes its state every
    // generation into the checkpoint file.
    core::CharacterizerOptions options = hunt_options(tier, 1);
    options.optimizer.checkpoint.save = [&](const std::string& blob) {
        const Clock::time_point start = Clock::now();
        if (!core::write_checkpoint_file(path, fingerprint, blob)) write_failed = true;
        if (trace != nullptr) {
            trace->checkpoint_write_s += seconds_since(start);
            ++trace->checkpoint_writes;
            trace->checkpoint_bytes += blob.size();
        }
    };
    if (trace != nullptr) {
        options.optimizer.on_generation = [trace](const core::HuntProgress&) {
            trace->generations.tick(0);
        };
    }
    if (kill) {
        options.optimizer.checkpoint.abort_after_generation =
            options.optimizer.ga.max_generations / 2;
    }

    CheckpointedHunt result;
    std::optional<core::LearnResult> learned;
    std::optional<core::WorstCaseReport> final_report;
    double learn_s = 0.0;
    double busy_learn = 0.0;
    double optimize_s = 0.0;
    try {
        Rig rig(counters);
        const core::DeviceCharacterizer characterizer(rig.tester, param, options);
        util::Rng rng(seed);
        const double busy_before = counters ? device_busy_s(*counters) : 0.0;
        Clock::time_point start = Clock::now();
        learned = characterizer.learn(rng);
        learn_s = seconds_since(start);
        busy_learn = counters ? device_busy_s(*counters) - busy_before : 0.0;
        if (trace != nullptr) trace->generations.start(0);
        start = Clock::now();
        core::WorstCaseReport report = characterizer.optimize(learned->model, rng);
        optimize_s = seconds_since(start);
        result.aborted_first_leg = report.aborted;
        if (kill) {
            if (!report.aborted) result.outcome.failure = "hunt was not aborted halfway";
        } else {
            result.outcome = outcome_of(rig.tester.log(), report.worst_record.wcr);
            result.rendered = render_hunt(seed, report, rig.tester);
            if (report.aborted || !report.worst_record.found) {
                result.outcome.failure = "uninterrupted hunt did not finish";
            }
            final_report = std::move(report);
        }
    } catch (const std::exception& e) {
        result.outcome.failure = std::string("first leg threw: ") + e.what();
    }

    if (kill && result.outcome.failure.empty()) {
        try {
            // Second leg: a new process resumes from the file (`--resume`).
            Clock::time_point start = Clock::now();
            const std::optional<std::string> blob =
                core::read_checkpoint_file(path, fingerprint);
            if (trace != nullptr) trace->checkpoint_read_s += seconds_since(start);
            if (!blob) {
                result.outcome.failure =
                    "checkpoint file does not decode under its fingerprint";
            } else {
                Rig rig(counters);
                core::OptimizerOptions resumed = options.optimizer;
                resumed.checkpoint.abort_after_generation = 0;
                resumed.checkpoint.resume_blob = *blob;
                util::Rng rng(seed);
                start = Clock::now();
                core::WorstCaseReport report =
                    core::WorstCaseOptimizer(resumed).run_unseeded(
                        rig.tester, param, options.generator,
                        core::objective_for(param), rng);
                optimize_s += seconds_since(start);
                result.outcome = outcome_of(rig.tester.log(), report.worst_record.wcr);
                result.rendered = render_hunt(seed, report, rig.tester);
                if (report.aborted) {
                    result.outcome.failure = "resumed hunt aborted";
                } else if (!report.worst_record.found) {
                    result.outcome.failure = "no worst case found";
                }
                final_report = std::move(report);
            }
        } catch (const std::exception& e) {
            result.outcome.failure = std::string("resumed leg threw: ") + e.what();
        }
    }
    if (write_failed && result.outcome.failure.empty()) {
        result.outcome.failure = "checkpoint write failed";
    }
    std::remove(path.c_str());
    if (trace != nullptr) {
        trace->campaign_s += seconds_since(campaign_start);
        trace->learn_s += learn_s;
        trace->learn_device_s += busy_learn;
        trace->optimize_s += optimize_s;
        if (final_report) add_report(*trace, *final_report);
        if (learned) replay_model(*trace, learned->model, options.optimizer, seed, nullptr);
    }
    return result;
}

std::string render_lot(Tier tier, std::uint64_t seed, std::size_t jobs) {
    const lot::LotResult result = lot::LotRunner(lot_options(tier, jobs, seed)).run();
    return lot::LotReport::build(result).render();
}

}  // namespace perfbench
