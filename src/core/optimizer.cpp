#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ate/async_tester.hpp"
#include "util/crash_point.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace cichar::core {

const char* to_string(Objective objective) noexcept {
    switch (objective) {
        case Objective::kDriftToMinimum: return "drift-to-minimum";
        case Objective::kDriftToMaximum: return "drift-to-maximum";
    }
    return "?";
}

Objective objective_for(const ate::Parameter& parameter) noexcept {
    return parameter.spec_type == ate::SpecType::kMinLimit
               ? Objective::kDriftToMinimum
               : Objective::kDriftToMaximum;
}

namespace {

double objective_wcr(Objective objective, double measured, double spec) {
    return objective == Objective::kDriftToMinimum
               ? ga::wcr_toward_min(measured, spec)
               : ga::wcr_toward_max(measured, spec);
}

/// Same record semantics as TripSession::to_record, for measurements made
/// outside a session (replica evaluation).
TripPointRecord make_record(const std::string& test_name,
                            const ate::SearchResult& result,
                            const ate::Parameter& parameter) {
    TripPointRecord record;
    record.test_name = test_name;
    record.found = result.found && !std::isnan(result.trip_point);
    record.trip_point = record.found ? result.trip_point : 0.0;
    record.measurements = result.measurements;
    if (record.found) {
        record.wcr = worst_case_ratio(parameter, record.trip_point);
        record.wcr_class = ga::classify(record.wcr);
    }
    return record;
}

ate::InjectionStats stats_delta(const ate::InjectionStats& now,
                                const ate::InjectionStats& before) {
    ate::InjectionStats delta;
    delta.measurements = now.measurements - before.measurements;
    delta.transients = now.transients - before.transients;
    delta.stuck_measurements = now.stuck_measurements - before.stuck_measurements;
    delta.stuck_episodes = now.stuck_episodes - before.stuck_episodes;
    delta.timeouts = now.timeouts - before.timeouts;
    delta.site_deaths = now.site_deaths - before.site_deaths;
    return delta;
}

/// Big blobs inside a checkpoint payload (cache/database/device state)
/// may exceed the default string cap.
constexpr std::uint64_t kMaxBlob = 1ULL << 28;

/// Fitness distribution + evaluation throughput for the hunt. Cached
/// references: one registry lookup per process.
void telem_hunt_evaluation(bool found, double wcr) {
    if (!util::telemetry::metrics_enabled()) return;
    namespace telem = util::telemetry;
    static constexpr double kWcrBounds[] = {0.0,  0.25, 0.5, 0.75, 0.9,
                                            1.0,  1.1,  1.25, 1.5, 2.0};
    static auto& evaluations = telem::Registry::instance().counter(
        "cichar_hunt_evaluations_total");
    static auto& fitness = telem::Registry::instance().histogram(
        "cichar_hunt_fitness_wcr", kWcrBounds);
    evaluations.add();
    if (found) fitness.observe(wcr);
}

}  // namespace

WorstCaseReport WorstCaseOptimizer::run(ate::Tester& tester,
                                        const ate::Parameter& parameter,
                                        const LearnedModel& model,
                                        Objective objective,
                                        util::Rng& rng) const {
    const NnTestGenerator nn_generator(model);
    // One pool serves both the NN seeding round and the replica fitness
    // evaluation, instead of paying spawn/teardown per phase. jobs 1 runs
    // both inline on the calling thread.
    std::optional<util::ThreadPool> pool;
    if (options_.parallel.jobs != 1) pool.emplace(options_.parallel.jobs);

    // A resumed hunt already holds fully dealt populations in its
    // checkpoint; NN seeding would only burn committee time (the rng it
    // would consume is restored from the blob regardless).
    std::vector<ga::TestChromosome> seeds;
    if (options_.checkpoint.resume_blob.empty()) {
        ScoringOptions scoring;
        scoring.jobs = options_.parallel.jobs;
        scoring.batch = options_.nn_score_batch;
        scoring.pool = pool ? &*pool : nullptr;
        TELEM_SPAN("hunt.nn_seeding");
        seeds = nn_generator.suggest_chromosomes(
            options_.nn_candidates, options_.nn_seed_count, rng, scoring);
    }
    return drive(tester, parameter, model.generator_options(),
                 std::move(seeds), objective, rng, pool ? &*pool : nullptr);
}

WorstCaseReport WorstCaseOptimizer::run_unseeded(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    Objective objective, util::Rng& rng) const {
    return drive(tester, parameter, generator_options, {}, objective, rng);
}

WorstCaseReport WorstCaseOptimizer::drive(
    ate::Tester& tester, const ate::Parameter& parameter,
    const testgen::RandomGeneratorOptions& generator_options,
    std::vector<ga::TestChromosome> seeds, Objective objective,
    util::Rng& rng, util::ThreadPool* shared_pool) const {
    TELEM_SPAN("hunt.drive");
    ate::PhaseScope phase(tester.log(), "ga-optimization");
    std::uint64_t applications_before = tester.log().total().applications;
    ate::FaultInjector* injector = tester.fault_injector();
    const bool faults_on = injector != nullptr && injector->profile().any();
    ate::InjectionStats injected_before =
        faults_on ? injector->stats() : ate::InjectionStats{};
    const bool policy_on = options_.trip.policy.enabled;
    FaultCounters replica_faults;  // merged from slots in submission order
    const bool resuming = !options_.checkpoint.resume_blob.empty();
    const bool checkpointing =
        static_cast<bool>(options_.checkpoint.save) ||
        options_.checkpoint.abort_after_generation > 0;

    const testgen::RandomTestGenerator generator(generator_options);
    TripSession session(tester, parameter, options_.trip);
    WorstCaseDatabase database(options_.database_capacity);
    const bool use_cache = options_.cache.enabled;
    TripPointCache cache(options_.cache.capacity > 0 ? options_.cache.capacity
                                                     : 1);
    const std::string cache_identity = options_.cache.identity.empty()
                                           ? parameter.name
                                           : options_.cache.identity;
    std::size_t cache_preloaded = 0;
    // A resume blob carries the cache contents itself; the warm-start file
    // would only be overwritten by the restore.
    if (use_cache && !options_.cache.file.empty() && !resuming) {
        const std::optional<std::string> bytes =
            util::read_file(options_.cache.file);
        if (bytes && cache.load(*bytes, cache_identity)) {
            cache_preloaded = cache.size();
            util::log_info("optimizer: warm trip cache, ", cache_preloaded,
                           " entries from ", options_.cache.file);
        }
    }
    std::size_t eval_counter = 0;

    const auto add_entry = [&](const std::string& name,
                               const testgen::PatternRecipe& recipe,
                               const testgen::TestConditions& conditions,
                               double trip_point, double wcr) {
        WorstCaseEntry entry;
        entry.name = name;
        entry.recipe = recipe;
        entry.conditions = conditions;
        entry.trip_point = trip_point;
        entry.wcr = wcr;
        entry.wcr_class = ga::classify(wcr, options_.thresholds);
        database.add(std::move(entry));
    };

    const auto add_functional_failure =
        [&](const std::string& name, const testgen::PatternRecipe& recipe,
            const testgen::TestConditions& conditions,
            const device::FunctionalResult& functional) {
            FunctionalFailureRecord failure;
            failure.name = name;
            failure.recipe = recipe;
            failure.conditions = conditions;
            failure.miscompares = functional.miscompares;
            failure.first_fail_cycle = functional.first_fail_cycle;
            database.add_functional_failure(std::move(failure));
        };

    // ---- replica evaluation -------------------------------------------
    // Every fitness measurement runs on a cold replica of the DUT (a
    // virtual re-insertion of the same die) whose noise stream is forked
    // from a dedicated stream on the calling thread, in submission order —
    // never by the workers — so every evaluation is a pure function of its
    // own seed and the shared const follower, and the hunt is
    // byte-identical at any jobs x inflight count. jobs 1 measures inline
    // on the calling thread.
    std::optional<util::ThreadPool> own_pool;
    util::ThreadPool* pool = shared_pool;
    if (pool == nullptr && options_.parallel.jobs != 1) {
        pool = &own_pool.emplace(options_.parallel.jobs);
    }
    util::Rng noise_rng = rng.fork(0x7e57);
    std::optional<ate::SearchUntilTrip> follower;

    // ---- crash-safe checkpointing -----------------------------------
    // The payload snapshots every piece of dynamic state the hunt loop
    // depends on: rng streams (hunt and replica noise), eval counter,
    // session reference/policy, the tester ledger and device state,
    // injector state, cache and database contents, the shared follower,
    // and the GA loop itself — so a resumed hunt is byte-identical to one
    // that was never interrupted.
    const auto serialize_state = [&](const ga::MultiPopulationCheckpoint& ck) {
        std::string out;
        util::put_rng(out, rng);
        util::put_u64(out, eval_counter);
        util::put_u64(out, applications_before);
        replica_faults.save(out);
        session.policy().save(out);
        util::put_bool(out, session.has_reference());
        util::put_double(out, session.has_reference()
                                  ? session.reference_trip_point()
                                  : 0.0);
        tester.log().save(out);
        std::string chip;
        const bool chip_ok = tester.dut().save_state(chip);
        util::put_bool(out, chip_ok);
        util::put_string(out, chip);
        util::put_bool(out, faults_on);
        if (faults_on) {
            injector->save(out);
            injected_before.save(out);
        }
        util::put_bool(out, use_cache);
        if (use_cache) {
            util::put_string(out, cache.save(cache_identity));
            util::put_u64(out, cache.stats().hits);
            util::put_u64(out, cache.stats().misses);
            util::put_u64(out, cache.stats().evictions);
            util::put_u64(out, cache_preloaded);
        }
        std::ostringstream db_stream;
        database.save(db_stream);
        util::put_string(out, db_stream.str());
        util::put_rng(out, noise_rng);
        // The follower is unset until the first live measurement (a hunt
        // answered entirely from a warm cache never sets it).
        util::put_bool(out, follower.has_value());
        util::put_double(out,
                         follower ? follower->reference_trip_point() : 0.0);
        ck.save(out);
        return out;
    };

    // Throws std::runtime_error when the blob disagrees with the current
    // configuration (fault profile / cache toggles) or is corrupt; the
    // caller decides whether that aborts or falls back to a cold start.
    const auto restore_state = [&](util::ByteReader& in) {
        rng = in.get_rng();
        eval_counter = static_cast<std::size_t>(in.get_u64());
        applications_before = in.get_u64();
        replica_faults = FaultCounters::load(in);
        session.policy().load(in);
        const bool has_reference = in.get_bool();
        const double rtp = in.get_double();
        if (has_reference) session.restore_reference(rtp);
        tester.log().load(in);
        const bool chip_ok = in.get_bool();
        const std::string chip = in.get_string(kMaxBlob);
        if (chip_ok) {
            util::ByteReader chip_in(chip);
            if (!tester.dut().load_state(chip_in)) {
                throw std::runtime_error(
                    "hunt resume: device state not restorable");
            }
        }
        const bool had_faults = in.get_bool();
        if (had_faults != faults_on) {
            throw std::runtime_error(
                "hunt resume: fault profile on/off mismatch");
        }
        if (faults_on) {
            injector->load(in);
            injected_before = ate::InjectionStats::load(in);
        }
        const bool had_cache = in.get_bool();
        if (had_cache != use_cache) {
            throw std::runtime_error("hunt resume: cache on/off mismatch");
        }
        if (use_cache) {
            if (!cache.load(in.get_string(kMaxBlob), cache_identity)) {
                throw std::runtime_error(
                    "hunt resume: trip cache blob rejected");
            }
            TripCacheStats cache_stats;
            cache_stats.hits = in.get_u64();
            cache_stats.misses = in.get_u64();
            cache_stats.evictions = in.get_u64();
            cache.set_stats(cache_stats);
            cache_preloaded = static_cast<std::size_t>(in.get_u64());
        }
        const std::string db_blob = in.get_string(kMaxBlob);
        std::istringstream db_stream{db_blob};
        database = WorstCaseDatabase::load(db_stream);
        noise_rng = in.get_rng();
        const bool has_follower = in.get_bool();
        const double follower_rtp = in.get_double();
        if (has_follower) follower.emplace(options_.trip.follow, follower_rtp);
        return ga::MultiPopulationCheckpoint::load(in,
                                                   options_.ga.population);
    };

    const std::size_t inflight =
        std::max<std::size_t>(1, options_.parallel.inflight);
    const ga::MultiPopulationGa driver(options_.ga);
    WorstCaseReport report;
    report.objective = objective;
    report.jobs = pool != nullptr ? pool->thread_count() : 1;
    report.inflight = inflight;

    // Admission window: `inflight` fitness slots per worker and, on a
    // pool, at least two, so a worker that finishes a slot picks up one
    // the owner already decoded instead of waiting on the decode.
    const std::size_t window =
        report.jobs *
        (pool != nullptr ? std::max<std::size_t>(2, inflight) : inflight);

    // Warm replica slab: clone_cold + Tester construction paid once per
    // slot at hunt start, then recycled via reset_warm for every fitness
    // measurement. Auto-sizing covers the whole admission window. Purely
    // a perf layer — a slab lease is observably identical to a fresh cold
    // clone, so reports/checkpoints/caches don't move.
    const std::size_t slab_capacity =
        options_.parallel.replica_slab == HuntParallelOptions::kAutoSlab
            ? window
            : options_.parallel.replica_slab;
    std::optional<ReplicaSlab> slab;
    if (slab_capacity > 0) slab.emplace(tester, slab_capacity);
    // Replicas never sleep emulated latency: the queue's completion
    // deadline carries it (one per slot).
    const ate::TesterOptions replica_options =
        ate::AsyncTester::replica_options(tester.options());

    // Hoisted once per hunt instead of copied per slot: the policy options
    // template (only the seed differs between slots).
    MeasurementPolicyOptions policy_template = options_.trip.policy;

    struct Slot {
        std::string name;
        testgen::PatternRecipe recipe;
        testgen::TestConditions conditions;
        TripCacheKey key;
        bool cached = false;
        std::uint64_t noise_seed = 0;
        testgen::Test test;
        TripPointRecord record;
        ate::MeasurementLog log;
        bool functional_ran = false;
        device::FunctionalResult functional;
        /// Per-replica fault stream / resilience policy, forked on the
        /// calling thread in submission order (empty when disabled).
        std::optional<ate::FaultInjector> injector;
        std::optional<MeasurementPolicy> policy;
        /// What the measurement threw (site death, quarantine), if anything.
        std::exception_ptr error;
    };

    // Per-batch scratch, hoisted so the buffer persists across fitness
    // batches and generations instead of being reallocated per call (the
    // big per-slot costs — DUT arrays, Tester, ledger — live in the slab
    // slots).
    std::vector<Slot> slots_scratch;

    // Expands the slot's pattern and measures it on a fresh cold replica
    // of the DUT, on the worker (the const generator expands from a local
    // rng seeded by the recipe), and returns the modeled tester-seconds it
    // ledgered. The first-ever evaluation runs the full-range search and
    // publishes the RTP follower; it must complete before any other slot
    // uses `follower`.
    const auto measure_slot = [&](Slot& slot, bool establish_reference) {
        slot.test = generator.make_test(slot.recipe, slot.conditions,
                                        slot.name);
        // Warm slab lease when available, cold clone otherwise — the
        // leased replica is observably identical to the clone (reset_warm
        // contract).
        ReplicaSlab::Lease lease;
        std::unique_ptr<device::DeviceUnderTest> cold_dut;
        std::optional<ate::Tester> cold_tester;
        if (slab.has_value()) {
            lease = slab->acquire(slot.noise_seed);
        } else {
            cold_dut = tester.dut().clone_cold(slot.noise_seed);
            cold_tester.emplace(*cold_dut, replica_options);
        }
        ate::Tester& replica = lease ? lease.tester() : *cold_tester;
        if (slot.injector.has_value()) {
            replica.attach_fault_injector(&*slot.injector);
        }
        replica.log().set_phase("ga-optimization");
        if (options_.trip.settle_between_tests) replica.settle();
        MeasurementPolicy* policy =
            slot.policy.has_value() ? &*slot.policy : nullptr;
        const ate::Oracle oracle =
            policy != nullptr
                ? policy->guard(replica.oracle(slot.test, parameter))
                : replica.oracle(slot.test, parameter);

        ate::SearchResult result;
        if (establish_reference) {
            const ate::SuccessiveApproximation initial(options_.trip.initial);
            if (policy != nullptr) {
                result = policy->screen(
                    [&] { return initial.find(oracle, parameter); }, oracle,
                    parameter);
                double rtp = result.trip_point;
                if (!result.found || std::isnan(rtp)) {
                    rtp = 0.5 * (parameter.search_start + parameter.search_end);
                }
                follower.emplace(options_.trip.follow, parameter.quantize(rtp));
            } else {
                ate::ReferenceSearch ref = ate::make_reference_search(
                    oracle, parameter, initial, options_.trip.follow);
                follower.emplace(ref.follower);
                result = std::move(ref.first_result);
            }
        } else {
            const auto follow_attempt = [&] {
                ate::SearchResult r = follower->find(oracle, parameter);
                if (!r.found && options_.trip.full_search_on_miss) {
                    const ate::SuccessiveApproximation full(
                        options_.trip.initial);
                    ate::SearchResult retry = full.find(oracle, parameter);
                    retry.measurements += r.measurements;
                    r = std::move(retry);
                }
                return r;
            };
            result = policy != nullptr
                         ? policy->screen(follow_attempt, oracle, parameter)
                         : follow_attempt();
        }
        slot.record = make_record(slot.name, result, parameter);

        if (options_.check_functional_failures && slot.record.found) {
            const double wcr = objective_wcr(objective, slot.record.trip_point,
                                             parameter.spec);
            if (wcr > options_.thresholds.fail) {
                slot.functional = replica.run_functional(slot.test);
                slot.functional_ran = true;
            }
        }
        slot.log = std::move(replica.log());
        return slot.log.total().tester_seconds;
    };

    // Ordering-stable reduction: ledger merges, database adds, and cache
    // inserts all happen in submission order. Reduction order, not harvest
    // order, is what the byte-identity contract rests on.
    const auto reduce_slots = [&](std::vector<Slot>& slots) {
        std::vector<double> values;
        values.reserve(slots.size());
        for (Slot& slot : slots) {
            if (slot.error) {
                // A failed measurement (site death) ends the hunt. Its
                // fired faults still count, like those of every slot
                // before it; later slots are dropped whether or not a
                // worker already measured them, so the injected stats
                // match at any jobs count.
                if (slot.injector.has_value()) {
                    injector->absorb_stats(slot.injector->stats());
                }
                std::rethrow_exception(slot.error);
            }
            if (!slot.cached) {
                tester.log().merge(slot.log);
                if (slot.policy.has_value()) {
                    replica_faults.merge(slot.policy->counters());
                }
                if (slot.injector.has_value()) {
                    injector->absorb_stats(slot.injector->stats());
                }
                // A not-found record under the policy reflects an
                // environmental outage, not the chromosome: never memoize
                // it.
                if (use_cache && (slot.record.found || !policy_on)) {
                    cache.insert(slot.key, slot.record);
                }
            }
            if (!slot.record.found) {
                telem_hunt_evaluation(false, 0.0);
                values.push_back(0.0);
                continue;
            }
            const double wcr = objective_wcr(objective, slot.record.trip_point,
                                             parameter.spec);
            telem_hunt_evaluation(true, wcr);
            add_entry(slot.name, slot.recipe, slot.conditions,
                      slot.record.trip_point, wcr);
            if (slot.functional_ran && !slot.functional.pass()) {
                add_functional_failure(slot.name, slot.recipe, slot.conditions,
                                       slot.functional);
            }
            values.push_back(wcr);
        }
        return values;
    };

    // Decode, name, and consult the cache for one slot on the calling
    // thread, in submission order. Returns false for cache hits (nothing
    // to measure). The cache key is recipe plus conditions, so the
    // pattern itself is expanded later, by the worker. Fault/policy
    // streams fork here too, so a (seed, profile) pair replays the exact
    // same fault sequence at any jobs count; draws happen only when
    // enabled, keeping the disabled path's rng stream untouched.
    const auto decode_slot = [&](Slot& slot, const ga::TestChromosome& c) {
        slot.recipe = c.decode_recipe(generator_options.min_cycles,
                                      generator_options.max_cycles);
        slot.conditions =
            c.decode_conditions(generator_options.condition_bounds);
        slot.name = "ga-" + std::to_string(eval_counter++);
        slot.key = TripCacheKey{slot.recipe, slot.conditions};
        if (use_cache) {
            if (const TripPointRecord* hit = cache.lookup(slot.key)) {
                slot.cached = true;
                slot.record = *hit;
                slot.record.test_name = slot.name;
                return false;
            }
        }
        slot.noise_seed = noise_rng();
        if (faults_on) slot.injector.emplace(injector->fork(0));
        if (policy_on) {
            policy_template.seed = noise_rng();
            slot.policy.emplace(policy_template);
        }
        return true;
    };

    // ---- the fitness engine -------------------------------------------
    // Every live slot is one job on the bounded submission/completion
    // queue: the whole measurement (search, fallback, functional run,
    // policy retries, fault forcing) runs on a pool worker, or inline at
    // jobs 1, while the owner decodes and admits the next slots. Under
    // emulated tester latency the slot's completion deadline — not a
    // sleep — carries the hardware wait. Harvest order is whatever ripens
    // first; reduce_slots puts everything back in submission order.
    ate::AsyncTesterOptions queue_options;
    queue_options.queue_depth = window;
    queue_options.latency = tester.latency_model();
    // Lot-wide shared budget (when provided): this hunt's ring is one
    // ordering domain drawing depth from the shared pool beyond its
    // guaranteed floor. Purely a throttle — byte-identity holds at any
    // dynamic depth, exactly as it does across --inflight values.
    queue_options.shared_credits = options_.parallel.shared_credits;
    // Declared after everything a job touches, so an exception unwinding
    // drive() quiesces the queue before any of that state dies.
    ate::AsyncTester queue(queue_options, pool);

    const ga::BatchFitnessFn fitness =
        [&](std::span<const ga::TestChromosome> batch) {
            TELEM_SPAN("hunt.fitness_batch");
            std::vector<Slot>& slots = slots_scratch;
            slots.clear();
            slots.resize(batch.size());
            const auto submit = [&](std::size_t i, bool establish_reference) {
                Slot& slot = slots[i];
                const bool ok = queue.submit(
                    i,
                    [&measure_slot, &slot, establish_reference] {
                        return measure_slot(slot, establish_reference);
                    },
                    [&slot](const ate::AsyncCompletion& c) {
                        slot.error = c.error;
                    });
                if (!ok) {
                    throw std::logic_error("hunt: submission ring overflow");
                }
            };

            // The very first live measurement establishes the shared RTP
            // follower; it completes before any other slot is admitted.
            // If it failed, the follower stays unset and reduce_slots
            // rethrows.
            std::size_t next = 0;
            if (!follower.has_value()) {
                while (next < slots.size()) {
                    const std::size_t i = next++;
                    if (!decode_slot(slots[i], batch[i])) continue;
                    submit(i, /*establish_reference=*/true);
                    queue.drain();
                    break;
                }
            }
            if (follower.has_value()) {
                while (next < slots.size()) {
                    if (!queue.can_submit()) {
                        (void)queue.wait();
                        continue;
                    }
                    const std::size_t i = next++;
                    if (decode_slot(slots[i], batch[i])) submit(i, false);
                }
                // Fully drained: no request outlives its batch, so the
                // generation-boundary checkpoint never snapshots with
                // measurements pending.
                queue.drain();
            }
            return reduce_slots(slots);
        };

    ga::MultiPopulationResume hooks;
    ga::MultiPopulationCheckpoint resume_checkpoint;
    if (resuming) {
        util::ByteReader in(options_.checkpoint.resume_blob);
        resume_checkpoint = restore_state(in);
        hooks.resume = &resume_checkpoint;
        util::log_info("optimizer: resumed hunt at generation ",
                       resume_checkpoint.next_generation);
    }
    if (options_.on_generation) {
        // Observational only: sampled outside the fitness path, no
        // randomness drawn, nothing fed back into the GA. Rides the
        // copy-free observer hook so watching a hunt never pays the
        // per-generation population snapshot checkpointing needs.
        hooks.observer = [&](std::size_t next_generation,
                             const ga::MultiPopulationOutcome& outcome) {
            HuntProgress progress;
            progress.next_generation = next_generation;
            progress.max_generations = options_.ga.max_generations;
            progress.evaluations = outcome.evaluations;
            progress.restarts = outcome.restarts;
            progress.best_fitness = outcome.best_fitness;
            progress.cache = cache.stats();
            progress.ate_applications = static_cast<std::size_t>(
                tester.log().total().applications - applications_before);
            progress.inflight = inflight;
            options_.on_generation(progress);
        };
    }
    if (checkpointing) {
        hooks.on_generation = [&](const ga::MultiPopulationCheckpoint& ck) {
            const std::size_t every =
                std::max<std::size_t>(1, options_.checkpoint.every);
            const bool abort =
                options_.checkpoint.abort_after_generation > 0 &&
                ck.next_generation >= options_.checkpoint.abort_after_generation;
            if (options_.checkpoint.save &&
                (abort || ck.next_generation % every == 0)) {
                options_.checkpoint.save(serialize_state(ck));
                CICHAR_CRASH_POINT("core.optimizer.post_checkpoint");
            }
            if (abort) {
                // Deterministic stand-in for SIGKILL: stop mid-hunt with the
                // checkpoint written and the report marked partial.
                report.aborted = true;
                return false;
            }
            return true;
        };
    }
    report.outcome = driver.run(fitness, std::move(seeds), rng, hooks);
    if (slab.has_value()) report.slab = slab->stats();

    report.database = std::move(database);

    // Re-expand and re-measure the winner (the paper re-analyzes final
    // worst case tests in detail on the ATE). Always measured live on the
    // main tester, never answered from the cache. An aborted (simulated
    // crash) hunt skips this: its report is partial by definition and the
    // re-measurement belongs to the resumed run.
    if (!report.aborted) {
        TELEM_SPAN("hunt.worst_remeasure");
        const testgen::PatternRecipe best_recipe =
            report.outcome.best.decode_recipe(generator_options.min_cycles,
                                              generator_options.max_cycles);
        const testgen::TestConditions best_conditions =
            report.outcome.best.decode_conditions(
                generator_options.condition_bounds);
        report.worst_test =
            generator.make_test(best_recipe, best_conditions, "worst-case");
        report.worst_record = session.measure(report.worst_test);
        if (report.worst_record.found) {
            report.worst_record.wcr = objective_wcr(
                objective, report.worst_record.trip_point, parameter.spec);
            report.worst_record.wcr_class =
                ga::classify(report.worst_record.wcr, options_.thresholds);
        }
    }

    report.faults = session.policy().counters();
    report.faults.merge(replica_faults);
    if (faults_on) {
        report.injected = stats_delta(injector->stats(), injected_before);
    }

    report.cache_stats = cache.stats();
    report.cache_preloaded = cache_preloaded;
    if (use_cache && !options_.cache.file.empty()) {
        // Atomic temp-file + rename: a hunt killed mid-save leaves the
        // previous warm cache intact, never a torn file.
        if (!util::atomic_write_file(options_.cache.file,
                                     cache.save(cache_identity))) {
            util::log_info("optimizer: failed to save trip cache to ",
                           options_.cache.file);
        }
    }
    report.ate_measurements = static_cast<std::size_t>(
        tester.log().total().applications - applications_before);
    util::log_info("optimizer: best WCR ", report.outcome.best_fitness, " in ",
                   report.outcome.evaluations, " evaluations, ",
                   report.ate_measurements, " measurements (jobs ",
                   report.jobs, ", cache hits ", report.cache_stats.hits,
                   ")");
    return report;
}

}  // namespace cichar::core
