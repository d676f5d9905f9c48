#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <string>

#include "util/telemetry.hpp"

namespace perfbench {

namespace telem = cichar::util::telemetry;

double process_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
    // the launching process's peak when that one was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool TimedDut::passes(const cichar::testgen::Test& test,
                      cichar::device::ParameterKind parameter, double setting) {
    const Clock::time_point start = Clock::now();
    const bool pass = inner_->passes(test, parameter, setting);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    counters_->passes.fetch_add(1, std::memory_order_relaxed);
    counters_->passes_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                   std::memory_order_relaxed);
    return pass;
}

cichar::device::FunctionalResult TimedDut::run_functional(
    const cichar::testgen::Test& test) {
    counters_->functional.fetch_add(1, std::memory_order_relaxed);
    return inner_->run_functional(test);
}

std::unique_ptr<cichar::device::DeviceUnderTest> TimedDut::clone_cold(
    std::uint64_t noise_seed) const {
    std::unique_ptr<cichar::device::DeviceUnderTest> clone =
        inner_->clone_cold(noise_seed);
    if (!clone) return nullptr;
    return std::unique_ptr<TimedDut>(new TimedDut(std::move(clone), *counters_));
}

void GenerationClock::start(std::size_t site) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (last_.size() <= site) last_.resize(site + 1);
    last_[site] = Clock::now();
}

void GenerationClock::tick(std::size_t site) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (last_.size() <= site) last_.resize(site + 1);
    if (last_[site]) {
        intervals_.push_back(std::chrono::duration<double>(now - *last_[site]).count());
    }
    last_[site] = now;
}

void GenerationClock::forget() {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_.clear();
}

std::vector<double> GenerationClock::intervals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return intervals_;
}

namespace {

// Must match the bounds ate/async_tester.cpp registers the histogram
// with (the registry keeps the first caller's bounds).
constexpr double kQueueWaitBoundsNs[] = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};

double counter(const char* name) {
    return static_cast<double>(telem::Registry::instance().counter(name).value());
}

/// Quantile of a bucketed histogram, log-interpolated inside the bucket
/// (the first bucket interpolates linearly from 0).
double histogram_quantile(const telem::Histogram::Snapshot& snap, double q) {
    if (snap.count == 0) return 0.0;
    const double target = q * static_cast<double>(snap.count);
    double seen = 0.0;
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
        const double in_bucket = static_cast<double>(snap.counts[i]);
        if (in_bucket == 0.0 || seen + in_bucket < target) {
            seen += in_bucket;
            continue;
        }
        // The overflow bucket has no upper bound: clamp to the last one.
        if (i == snap.upper_bounds.size()) break;
        const double frac = (target - seen) / in_bucket;
        const double hi = snap.upper_bounds[i];
        if (i == 0) return frac * hi;
        const double lo = snap.upper_bounds[i - 1];
        return lo * std::pow(hi / lo, frac);
    }
    return snap.upper_bounds.back();
}

}  // namespace

void reset_registry() {
    telem::set_metrics_enabled(true);
    telem::Registry::instance().reset_values();
}

RegistryScrape scrape_registry() {
    RegistryScrape s;
    s.search_probes = counter("cichar_search_probes_total");
    s.window_hits = counter("cichar_search_window_hits_total");
    s.full_fallbacks = counter("cichar_search_full_fallbacks_total");
    s.nn_candidates_scored = counter("cichar_nn_candidates_scored_total");
    s.pool_busy_s =
        telem::Registry::instance().gauge("cichar_pool_busy_seconds_total").value();
    const telem::Histogram::Snapshot wait =
        telem::Registry::instance()
            .histogram("cichar_ate_async_queue_wait_ns", kQueueWaitBoundsNs)
            .snapshot();
    s.queue_wait_p50_s = 1e-9 * histogram_quantile(wait, 0.50);
    s.queue_wait_p95_s = 1e-9 * histogram_quantile(wait, 0.95);
    return s;
}

}  // namespace perfbench
