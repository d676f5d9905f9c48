// End-to-end characterization benchmark: the perfbench program.
//
//   perfbench --workload hunt|lot_latency|hunt_checkpoint --seed N
//             --seconds S --trace 0|1 [--tier full|quick] [--scratch DIR]
//
// Set-up (workload construction plus one untimed warm-up campaign) runs
// several times and reports its median. The warm-up campaign is the same
// at every --seed, so set-up time does not follow the seed's hunt lengths. The run then executes batches of
// campaigns, each batch seeded from --seed, until --seconds have passed.
// Time metrics are medians over batches; count and quality metrics cover
// a fixed number of leading batches, so they repeat exactly at a fixed
// seed. With --trace 1 the run instead times a set of batches untraced,
// replays the same batches traced, and reports per-layer metrics plus
// the tracing overhead. The last stdout line is one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "util/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Tier tier = Tier::kFull;
    std::string scratch = ".";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tier full|quick] [--scratch DIR]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else if (flag == "--tier") {
                if (value != "full" && value != "quick") usage("--tier takes full or quick");
                args.tier = value == "quick" ? Tier::kQuick : Tier::kFull;
            } else if (flag == "--scratch") {
                args.scratch = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("malformed value for " + flag).c_str());
        }
    }
    if (args.workload.empty() || !have_seed || !(args.seconds > 0.0)) {
        usage("--workload, --seed and a positive --seconds are required");
    }
    return args;
}

constexpr std::uint64_t kWarmUpSeed = 0x9E3779B97F4A7C15ULL;

struct Batch {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<CampaignOutcome> outcomes;
};

Batch run_batch(Workload& workload, std::uint64_t seed, LayerTrace* trace) {
    Batch batch;
    const double cpu = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    batch.outcomes = workload.run_batch(seed, trace);
    batch.wall_s = seconds_since(start);
    batch.cpu_s = process_cpu_seconds() - cpu;
    return batch;
}

/// Ordered name -> (value, unit) list rendered into the result line.
class Metrics {
public:
    void add(const char* name, double value, const char* unit) {
        if (!std::isfinite(value)) value = 0.0;
        entries_.push_back({name, value, unit});
        std::printf("  %-34s %14.6g %s\n", name, value, unit);
    }
    [[nodiscard]] std::string json() const {
        std::string out = "{";
        char buf[128];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", entries_[i].name, entries_[i].value,
                          entries_[i].unit);
            out += buf;
        }
        return out + "}";
    }

private:
    struct Entry {
        const char* name;
        double value;
        const char* unit;
    };
    std::vector<Entry> entries_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void add(const std::vector<Batch>& batches) {
        for (const Batch& batch : batches) {
            for (const CampaignOutcome& outcome : batch.outcomes) {
                ++attempted;
                if (outcome.failure.empty()) continue;
                if (++failed <= 5) {
                    std::fprintf(stderr, "perfbench: campaign failed: %s\n",
                                 outcome.failure.c_str());
                }
            }
        }
    }
};

void end_to_end(const std::vector<double>& setup_s,
                const std::vector<Batch>& batches, std::size_t counted,
                Metrics& m) {
    std::vector<double> rates;
    std::vector<double> cpu;
    for (const Batch& batch : batches) {
        const auto n = static_cast<double>(batch.outcomes.size());
        rates.push_back(n / batch.wall_s);
        cpu.push_back(batch.cpu_s / n);
    }
    double applications = 0.0;
    double tester_s = 0.0;
    double wcr = 0.0;
    double weak = 0.0;
    double n = 0.0;
    double ok = 0.0;
    double total = 0.0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (const CampaignOutcome& outcome : batches[b].outcomes) {
            total += 1.0;
            if (outcome.failure.empty()) ok += 1.0;
            if (b >= counted) continue;
            applications += static_cast<double>(outcome.applications);
            tester_s += outcome.tester_s;
            wcr += outcome.wcr;
            weak += outcome.wcr >= 0.8 ? 1.0 : 0.0;
            n += 1.0;
        }
    }
    m.add("setup_s", quantile(setup_s, 0.5), "s");
    m.add("campaigns_per_s", quantile(rates, 0.5), "1/s");
    m.add("cpu_s_per_campaign", quantile(cpu, 0.5), "s");
    m.add("ate_measurements_per_campaign", applications / n, "count");
    m.add("tester_s_per_campaign", tester_s / n, "s");
    m.add("wcr_mean", wcr / n, "ratio");
    m.add("weakness_share", weak / n, "ratio");
    m.add("ok_frac", ok / total, "ratio");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void per_layer(const Workload& workload, const LayerTrace& t,
               const RegistryScrape& r, const std::vector<Batch>& traced,
               double untraced_wall, Metrics& m) {
    double n = 0.0;
    double wall = -t.replay_s;  // replays are benchmark work, not the workload's
    double tester_s = 0.0;
    for (const Batch& batch : traced) {
        wall += batch.wall_s;
        for (const CampaignOutcome& outcome : batch.outcomes) {
            n += 1.0;
            tester_s += outcome.tester_s;
        }
    }
    const auto passes = static_cast<double>(t.device.passes.load());
    const double passes_s = 1e-9 * static_cast<double>(t.device.passes_ns.load());
    const auto lookups = static_cast<double>(t.cache_hits + t.cache_misses);
    const double sleep_s = tester_s * workload.realtime_fraction();
    const std::vector<double> generations = t.generations.intervals();

    m.add("device.passes.calls", passes / n, "count");
    m.add("device.passes.busy_s", passes_s / n, "s");
    m.add("device.passes.ns", ratio(1e9 * passes_s, passes), "ns");
    m.add("testgen.expand_ns", ratio(t.expand_ns, static_cast<double>(t.expand_calls)), "ns");
    m.add("testgen.features_ns",
          ratio(t.features_ns, static_cast<double>(t.features_calls)), "ns");
    m.add("core.campaign_s", t.campaign_s / n, "s");
    m.add("core.learn_s", t.learn_s / n, "s");
    m.add("core.optimize_s", t.optimize_s / n, "s");
    m.add("nn.train_s", (t.learn_s - t.learn_device_s) / n, "s");
    m.add("nn.score_s", ratio(t.nn_score_s, static_cast<double>(t.nn_score_calls)), "s");
    m.add("nn.candidates_scored", r.nn_candidates_scored / n, "count");
    m.add("ga.generation_s.p50", quantile(generations, 0.50), "s");
    m.add("ga.generation_s.p95", quantile(generations, 0.95), "s");
    m.add("ga.evaluations", static_cast<double>(t.evaluations) / n, "count");
    m.add("ga.restarts", static_cast<double>(t.restarts) / n, "count");
    m.add("ate.search.probes", r.search_probes / n, "count");
    m.add("ate.search.window_hit_rate",
          ratio(r.window_hits, r.window_hits + r.full_fallbacks), "ratio");
    m.add("core.trip_cache.lookups", lookups / n, "count");
    m.add("core.trip_cache.hit_rate", ratio(static_cast<double>(t.cache_hits), lookups),
          "ratio");
    m.add("core.slab.recycle_rate",
          ratio(static_cast<double>(t.slab_recycles), static_cast<double>(t.slab_acquires)),
          "ratio");
    m.add("ate.sleep_s", sleep_s / n, "s");
    m.add("ate.overlap_x", ratio(sleep_s, wall), "x");
    m.add("ate.async.queue_wait_s.p50", r.queue_wait_p50_s, "s");
    m.add("ate.async.queue_wait_s.p95", r.queue_wait_p95_s, "s");
    m.add("util.pool.busy_s", r.pool_busy_s / n, "s");
    m.add("util.pool.utilization",
          ratio(r.pool_busy_s, wall * static_cast<double>(workload.jobs())), "ratio");
    m.add("lot.site_done_s.p50", quantile(t.lot_site_done_p50_s, 0.5), "s");
    m.add("lot.tail_s", quantile(t.lot_tail_s, 0.5), "s");
    m.add("core.checkpoint.writes", static_cast<double>(t.checkpoint_writes) / n, "count");
    m.add("core.checkpoint.bytes", static_cast<double>(t.checkpoint_bytes) / n, "bytes");
    m.add("core.checkpoint.write_s", t.checkpoint_write_s / n, "s");
    m.add("core.checkpoint.read_s", t.checkpoint_read_s / n, "s");
    m.add("trace.overhead", wall / untraced_wall - 1.0, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    std::unique_ptr<Workload> workload;
    if (!make_workload(args.workload, args.tier, args.scratch)) {
        usage(("unknown workload " + args.workload).c_str());
    }
    try {
        const std::size_t setup_reps = args.tier == Tier::kQuick ? 1 : 5;
        std::vector<double> setup_s;
        for (std::size_t r = 0; r < setup_reps; ++r) {
            const Clock::time_point start = Clock::now();
            workload = make_workload(args.workload, args.tier, args.scratch);
            workload->warm_up(kWarmUpSeed);
            setup_s.push_back(seconds_since(start));
        }

        std::vector<Batch> batches;
        const Clock::time_point start = Clock::now();
        const std::size_t counted = workload->counted_batches();
        const double timed_budget = args.trace ? 0.5 * args.seconds : args.seconds;
        while (batches.size() < (args.trace ? 1 : counted) ||
               seconds_since(start) < timed_budget) {
            batches.push_back(run_batch(*workload, derive_seed(args.seed, batches.size()),
                                        nullptr));
        }
        Tally tally;
        tally.add(batches);

        std::printf("perfbench %s (%s tier, seed %llu): %zu batches, %zu campaigns\n",
                    args.workload.c_str(), args.tier == Tier::kQuick ? "quick" : "full",
                    static_cast<unsigned long long>(args.seed), batches.size(),
                    tally.attempted);
        std::printf("  set-up s:");
        for (const double s : setup_s) std::printf(" %.3f", s);
        std::printf("\n  batch wall s:");
        for (const Batch& batch : batches) std::printf(" %.3f", batch.wall_s);
        std::printf("\n");
        Metrics metrics;
        if (!args.trace) {
            end_to_end(setup_s, batches, counted, metrics);
        } else {
            double untraced_wall = 0.0;
            for (const Batch& batch : batches) untraced_wall += batch.wall_s;
            LayerTrace trace;
            reset_registry();
            std::vector<Batch> traced;
            for (std::size_t b = 0; b < batches.size(); ++b) {
                traced.push_back(run_batch(*workload, derive_seed(args.seed, b), &trace));
            }
            const RegistryScrape scrape = scrape_registry();
            cichar::util::telemetry::set_metrics_enabled(false);
            tally.add(traced);
            // Cross-check the decorator against the tester ledgers: every
            // pattern application reaches the device exactly once.
            double applications = 0.0;
            for (const Batch& batch : traced) {
                for (const CampaignOutcome& o : batch.outcomes) {
                    applications += static_cast<double>(o.applications);
                }
            }
            const auto device_calls =
                static_cast<double>(trace.device.passes + trace.device.functional);
            if (device_calls > 0.0 && device_calls != applications) {
                std::fprintf(stderr,
                             "perfbench: device saw %.0f applications, tester "
                             "ledgers %.0f\n",
                             device_calls, applications);
                ++tally.failed;
            }
            per_layer(*workload, trace, scrape, traced, untraced_wall, metrics);
        }
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                    tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
                    metrics.json().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
