// Extension bench: the submission/completion queue the hunt measures
// through. The GA hunt's fitness batch is rate-limited by emulated tester
// I/O (TesterOptions::realtime_fraction); every fitness slot is one job
// on the queue, and its latency is one completion deadline, so the
// in-flight depth decides how much of it overlaps decoding and other
// slots. Three timed configurations at a fixed worker count:
//
//   C   inflight 1, fraction 0     -> the pure CPU (decode/eval/score) cost
//   T_b inflight 1, fraction 0.35  -> CPU + latency, shallow window
//   T_a inflight 16, fraction 0.35 -> CPU overlapped with in-flight latency
//
// hidden = (T_b - T_a) / C: how much of the CPU cost the deeper window
// moved off the critical path, in units of that cost. Target: >= 0.8 (a
// ratio above 1 means the deeper window also overlapped latency the
// shallow one serialized). Byte-identical reports across all rows.
//
// A fourth section ablates the warm replica slab: every fitness slot
// used to pay a cold clone (16 KiB of array state + a Tester + ledger +
// options copies) before its trip search; the slab pays that once per
// slot at hunt start and recycles replicas via reset_warm. On the
// default workload (100-1000-cycle patterns) the search CPU hides the
// clone cost, so the ablation runs short patterns with the trip cache
// off — every evaluation is measured and the per-slot fixed costs are
// the bill. Target: >= 20% wall-clock reduction, byte-identical report.
//
// `--quick` (CI smoke) skips the latency rig and asserts (a) inflight 16
// is not slower than inflight 1 at fraction 0 — a deeper window must be
// free when there is no latency to hide — and (b) the warm slab is not
// slower than forced cold clones on the same workload (ratio ~= 1.0:
// recycling must never cost wall clock). Both comparisons run their two
// configurations interleaved rep by rep and gate on the median of the
// paired ratios.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "util/ascii.hpp"

using namespace cichar;

namespace {

constexpr std::uint64_t kSeed = 2005;
constexpr std::size_t kJobs = 4;
constexpr std::size_t kInflight = 16;
// Fraction of modeled tester time actually spent per measurement (as
// inline sleep or completion deadline).
constexpr double kRealtimeFraction = 0.35;

core::OptimizerOptions hunt_options(std::size_t inflight) {
    core::OptimizerOptions options;
    options.ga.population.size = 10;
    options.ga.populations = 3;
    options.ga.max_generations = 10;
    options.ga.stagnation_limit = 6;
    options.ga.max_restarts = 2;
    options.ga.migration_interval = 4;
    options.ga.population.operators.crossover_rate = 0.8;
    options.ga.population.operators.mutation_rate = 0.10;
    options.ga.population.operators.reset_rate = 0.01;
    options.ga.population.operators.seed_mutation_rate = 0.05;
    options.parallel.jobs = kJobs;
    options.parallel.inflight = inflight;
    options.cache.enabled = true;
    return options;
}

struct HuntRun {
    core::WorstCaseReport report;
    std::string rendered;
};

HuntRun run_hunt(std::size_t inflight, double realtime_fraction,
                 std::uint64_t seed = kSeed) {
    ate::TesterOptions tester_options;
    tester_options.realtime_fraction = realtime_fraction;
    bench::Rig rig({}, {}, tester_options);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(seed);
    const core::WorstCaseOptimizer optimizer(hunt_options(inflight));

    HuntRun run;
    run.report = optimizer.run_unseeded(rig.tester, param,
                                        bench::nominal_generator(),
                                        core::objective_for(param), rng);
    core::ReportInputs inputs;
    inputs.device_name = "bench-async";
    inputs.seed = seed;
    inputs.hunt = &run.report;
    inputs.ledger = &rig.tester.log();
    run.rendered = core::render_report(inputs);
    return run;
}

// ---- warm-slab ablation rig -------------------------------------------
// A defect-dense die: the fault map is immutable per-die state that
// every cold clone must copy (parametric trip searches never read it —
// faults only fire on functional runs), so on a bad die each fitness
// slot used to pay a fault-map copy + array allocation + Tester
// bring-up before its first probe. reset_warm touches none of that.
// Short patterns, coarse follower, trip cache off: the per-slot fixed
// costs are the bill, not the search CPU.
constexpr std::uint32_t kSlabMinCycles = 2;
constexpr std::uint32_t kSlabMaxCycles = 8;
constexpr std::size_t kSlabFaults = 4096;  // ~1 weak bit per word

device::FaultSet dense_fault_map() {
    std::vector<device::Fault> faults;
    faults.reserve(kSlabFaults);
    util::Rng rng(kSeed ^ 0xFA17);
    for (std::size_t i = 0; i < kSlabFaults; ++i) {
        device::Fault fault;
        fault.type = device::FaultType::kStuckAt0;
        fault.address = static_cast<std::uint32_t>(rng() % 4096);
        fault.bit = static_cast<std::uint8_t>(rng() % 16);
        faults.push_back(fault);
    }
    return device::FaultSet(std::move(faults));
}

HuntRun run_slab_hunt(std::size_t replica_slab) {
    device::MemoryTestChip chip({}, {}, {}, dense_fault_map());
    ate::Tester tester(chip);
    const ate::Parameter param = ate::Parameter::data_valid_time();
    util::Rng rng(kSeed);
    core::OptimizerOptions options = hunt_options(1);
    options.parallel.jobs = 1;  // serialized: clone cost hits wall 1:1
    options.cache.enabled = false;  // measure every slot
    options.parallel.replica_slab = replica_slab;
    // A deeper hunt than the latency rig: thousands of fitness slots so
    // the per-slot fixed costs add up to a stable wall-clock signal.
    options.ga.population.size = 16;
    options.ga.populations = 4;
    options.ga.max_generations = 120;
    options.ga.stagnation_limit = 120;
    // Fast follower searches (coarse steps, no bisection refinement, no
    // inter-test settle or functional re-runs): a handful of probes per
    // slot, the realistic regime where the per-slot clone + bring-up
    // cost is a visible fraction of the bill.
    options.trip.follow.search_factor = 1.0;
    options.trip.follow.refine = false;
    options.trip.settle_between_tests = false;
    options.check_functional_failures = false;
    const core::WorstCaseOptimizer optimizer(options);

    testgen::RandomGeneratorOptions generator = bench::nominal_generator();
    generator.min_cycles = kSlabMinCycles;
    generator.max_cycles = kSlabMaxCycles;

    HuntRun run;
    run.report = optimizer.run_unseeded(tester, param, generator,
                                        core::objective_for(param), rng);
    core::ReportInputs inputs;
    inputs.device_name = "bench-async";
    inputs.seed = kSeed;
    inputs.hunt = &run.report;
    inputs.ledger = &tester.log();
    run.rendered = core::render_report(inputs);
    return run;
}

struct TimedConfig {
    double median = 0.0;
    HuntRun last;
};

TimedConfig time_config(const char* label, std::size_t inflight,
                        double realtime_fraction, std::size_t reps) {
    TimedConfig timed;
    const bench::TimedRuns runs = bench::time_runs(
        /*warmup=*/1, reps,
        [&] { timed.last = run_hunt(inflight, realtime_fraction); });
    timed.median = runs.median();
    std::printf("%s: median %.2f s over %zu runs\n", label, timed.median,
                runs.seconds.size());
    return timed;
}

TimedConfig time_slab(const char* label, std::size_t replica_slab,
                      std::size_t reps) {
    TimedConfig timed;
    const bench::TimedRuns runs = bench::time_runs(
        /*warmup=*/1, reps, [&] { timed.last = run_slab_hunt(replica_slab); });
    timed.median = runs.median();
    std::printf("%s: median %.2f s over %zu runs\n", label, timed.median,
                runs.seconds.size());
    return timed;
}

void print_slab_audit() {
    std::printf(
        "\nper-slot allocation audit (before -> after): each fitness slot "
        "used to heap-allocate a cold DUT clone (2 x 4096-word arrays plus "
        "the die's immutable fault map), a Tester with a fresh "
        "MeasurementLog, and copies of TesterOptions and the "
        "measurement-policy options; the slab now owns the DUT + Tester "
        "pair per slot (recycled via reset_warm), the policy options "
        "template is hoisted once per hunt, and the batch's slot/pending "
        "vectors persist across generations.\n");
}

// One quick-smoke rep: the no-latency hunt at kQuickSeeds consecutive
// seeds, so a rep lasts >= ~50 ms (4-CPU x86-64 host, Release) and a
// scheduler hiccup on a shared host is small against it. Returns the
// reports, concatenated.
constexpr std::uint64_t kQuickSeeds = 10;
constexpr std::size_t kQuickReps = 9;

std::string run_quick_rep(std::size_t inflight) {
    std::string rendered;
    for (std::uint64_t i = 0; i < kQuickSeeds; ++i) {
        rendered += run_hunt(inflight, 0.0, kSeed + i).rendered;
    }
    return rendered;
}

// Times two configurations rep by rep, alternating which one runs first,
// so a burst of other load on a shared host lands on both sides of a
// pair instead of deciding a whole block. The gate statistic is the
// median of the per-rep b/a wall ratios.
struct PairedTiming {
    bench::TimedRuns a;
    bench::TimedRuns b;
    double ratio = 1.0;
};

template <typename FnA, typename FnB>
PairedTiming time_interleaved(std::size_t reps, FnA&& run_a, FnB&& run_b) {
    using Clock = std::chrono::steady_clock;
    const auto timed = [](auto&& fn) {
        const Clock::time_point start = Clock::now();
        fn();
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    run_a();  // warm-up
    run_b();
    PairedTiming timing;
    bench::TimedRuns ratios;
    for (std::size_t i = 0; i < reps; ++i) {
        double a = 0.0;
        double b = 0.0;
        if (i % 2 == 0) {
            a = timed(run_a);
            b = timed(run_b);
        } else {
            b = timed(run_b);
            a = timed(run_a);
        }
        timing.a.seconds.push_back(a);
        timing.b.seconds.push_back(b);
        ratios.seconds.push_back(a > 0.0 ? b / a : 1.0);
    }
    timing.ratio = ratios.median();
    return timing;
}

void print_timing(const char* label, const bench::TimedRuns& runs) {
    std::printf("%s: median %.3f s, min %.3f s over %zu runs\n", label,
                runs.median(), runs.min(), runs.seconds.size());
}

int run_quick() {
    // CI smoke: with no latency to hide, a deeper in-flight window must
    // not cost wall clock (20% noise margin for shared runners) and the
    // report must stay byte-identical.
    std::string shallow_rendered;
    std::string deep_rendered;
    const PairedTiming inflight = time_interleaved(
        kQuickReps, [&] { shallow_rendered = run_quick_rep(1); },
        [&] { deep_rendered = run_quick_rep(kInflight); });
    print_timing("inflight 1 (fraction 0)", inflight.a);
    print_timing("inflight 16 (fraction 0)", inflight.b);
    const bool identical = deep_rendered == shallow_rendered;
    const double ratio = inflight.ratio;
    std::printf("inflight 16 / inflight 1 wall ratio (paired median): %.2f "
                "(target <= 1.20): %s\n",
                ratio, ratio <= 1.20 ? "PASS" : "FAIL");
    std::printf("report identical: %s\n", identical ? "PASS" : "FAIL");

    // Warm-slab overhead gate: recycling replicas must never cost wall
    // clock relative to forced cold clones (same noise margin), and the
    // slab must be invisible in the report bytes.
    HuntRun cold;
    HuntRun warm;
    const PairedTiming slab = time_interleaved(
        3, [&] { cold = run_slab_hunt(0); },
        [&] { warm = run_slab_hunt(core::HuntParallelOptions::kAutoSlab); });
    print_timing("cold clones (slab 0)", slab.a);
    print_timing("warm slab (auto)", slab.b);
    const bool slab_identical = warm.rendered == cold.rendered;
    const double slab_ratio = slab.ratio;
    std::printf("warm/cold wall ratio (paired median): %.2f (target <= "
                "1.20): %s\n",
                slab_ratio, slab_ratio <= 1.20 ? "PASS" : "FAIL");
    std::printf("slab report identical: %s\n",
                slab_identical ? "PASS" : "FAIL");
    return (ratio <= 1.20 && identical && slab_ratio <= 1.20 &&
            slab_identical)
               ? 0
               : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    bench::header("Extension",
                  quick ? "completion queue smoke: no-latency overhead check"
                        : "completion queue: hiding decode/scoring cost "
                          "behind in-flight tester latency",
                  kSeed);
    if (quick) return run_quick();

    const TimedConfig cpu_only =
        time_config("inflight 1, fraction 0 (CPU cost C)", 1, 0.0, 3);
    const TimedConfig shallow = time_config(
        "inflight 1, fraction 0.35 (T_b)", 1, kRealtimeFraction, 3);
    const TimedConfig deep = time_config(
        "inflight 16, fraction 0.35 (T_a)", kInflight, kRealtimeFraction, 3);

    bench::section("latency hiding (jobs=4)");
    util::TextTable table(
        {"config", "inflight", "fraction", "median s", "report identical"});
    const std::string& reference = cpu_only.last.rendered;
    const bool identical_shallow = shallow.last.rendered == reference;
    const bool identical_deep = deep.last.rendered == reference;
    table.add_row({"inflight 1 (CPU)", "1", "0",
                   util::fixed(cpu_only.median, 2), "yes"});
    table.add_row({"inflight 1", "1", util::fixed(kRealtimeFraction, 2),
                   util::fixed(shallow.median, 2),
                   identical_shallow ? "yes" : "NO"});
    table.add_row({"inflight 16", std::to_string(kInflight),
                   util::fixed(kRealtimeFraction, 2),
                   util::fixed(deep.median, 2),
                   identical_deep ? "yes" : "NO"});
    std::printf("%s", table.render().c_str());

    const bool deterministic = identical_shallow && identical_deep;
    const double hidden =
        cpu_only.median > 0.0
            ? (shallow.median - deep.median) / cpu_only.median
            : 0.0;
    const double speedup =
        deep.median > 0.0 ? shallow.median / deep.median : 0.0;
    std::printf("\nwall clock removed by the deeper window: %.2f s (%.0f%% "
                "of the %.2f s CPU cost)\n",
                shallow.median - deep.median, 100.0 * hidden,
                cpu_only.median);
    std::printf("hidden cost fraction: %.2f (target >= 0.80): %s\n", hidden,
                hidden >= 0.80 ? "PASS" : "FAIL");
    std::printf("speedup over inflight 1 at fraction %.2f: %.2fx\n",
                kRealtimeFraction, speedup);
    std::printf("inflight determinism (byte-identical reports): %s\n",
                deterministic ? "PASS" : "FAIL");

    bench::section("warm replica slab ablation (no latency, cache off)");
    std::printf("defect-dense die (%zu faults), short patterns (%u-%u "
                "cycles), one worker: the trip search is cheap, the "
                "per-slot clone is not\n",
                kSlabFaults, kSlabMinCycles, kSlabMaxCycles);
    const TimedConfig slab_cold =
        time_slab("cold clone per slot (slab 0)", 0, 5);
    const TimedConfig slab_warm = time_slab(
        "warm slab (auto)", core::HuntParallelOptions::kAutoSlab, 5);
    const bool slab_identical =
        slab_warm.last.rendered == slab_cold.last.rendered;
    const double slab_reduction =
        slab_cold.median > 0.0
            ? 1.0 - slab_warm.median / slab_cold.median
            : 0.0;
    std::printf("slab leases: %llu acquires, %llu recycles, %llu cold "
                "clones, %llu transient misses\n",
                static_cast<unsigned long long>(
                    slab_warm.last.report.slab.acquires),
                static_cast<unsigned long long>(
                    slab_warm.last.report.slab.recycles),
                static_cast<unsigned long long>(
                    slab_warm.last.report.slab.cold_clones),
                static_cast<unsigned long long>(
                    slab_warm.last.report.slab.misses));
    std::printf("wall-clock reduction from recycling: %.0f%% "
                "(target >= 20%%): %s\n",
                100.0 * slab_reduction,
                slab_reduction >= 0.20 ? "PASS" : "FAIL");
    std::printf("slab determinism (byte-identical reports): %s\n",
                slab_identical ? "PASS" : "FAIL");
    print_slab_audit();

    bench::BenchJson json;
    json.set_string("bench", "async_pipeline");
    json.set_integer("seed", kSeed);
    json.set_integer("jobs", kJobs);
    json.set_integer("inflight", kInflight);
    json.set_number("realtime_fraction", kRealtimeFraction);
    json.set_number("cpu_seconds", cpu_only.median);
    json.set_number("blocking_seconds", shallow.median);
    json.set_number("async_seconds", deep.median);
    json.set_number("hidden_cost_fraction", hidden);
    json.set_number("speedup", speedup);
    json.set_bool("deterministic", deterministic);
    json.set_number("slab_cold_seconds", slab_cold.median);
    json.set_number("slab_warm_seconds", slab_warm.median);
    json.set_number("slab_reduction", slab_reduction);
    json.set_integer("slab_recycles", slab_warm.last.report.slab.recycles);
    json.set_bool("slab_deterministic", slab_identical);
    json.write("BENCH_async.json");

    std::printf(
        "\npaper context: every GA fitness evaluation is a live trip-point "
        "search on the modeled ATE, so the hunt pays tester I/O latency per "
        "probe; the submission/completion queue keeps chromosome decoding, "
        "cache lookups and scoring running under those in-flight waits "
        "while the submission-order reduction keeps one seed -> one "
        "report.\n");
    return (hidden >= 0.80 && deterministic && slab_reduction >= 0.20 &&
            slab_identical)
               ? 0
               : 1;
}
