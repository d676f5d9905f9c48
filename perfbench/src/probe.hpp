// Benchmark-side instrumentation for the traced run. Everything here
// observes the program from outside: a DUT decorator around the device
// model, timestamps taken in public hooks, and scrapes of the existing
// telemetry registry. None of it runs in the timed (untraced) runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "device/dut.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU seconds (all threads, user + system).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Device-model call counters shared by a DUT and all of its replicas.
struct DeviceCounters {
    std::atomic<std::uint64_t> passes{0};
    std::atomic<std::uint64_t> passes_ns{0};
    std::atomic<std::uint64_t> functional{0};
};

/// Times every passes() call of the wrapped device and forwards the
/// replication and checkpoint contract (clone_cold / reset_warm /
/// save_state / load_state), so replica slabs and checkpoints see the
/// same device they would without the decorator. Clones are decorated
/// too and report into the same counters.
class TimedDut final : public cichar::device::DeviceUnderTest {
public:
    TimedDut(cichar::device::DeviceUnderTest& inner, DeviceCounters& counters)
        : inner_(&inner), counters_(&counters) {}

    bool passes(const cichar::testgen::Test& test,
                cichar::device::ParameterKind parameter,
                double setting) override;
    cichar::device::FunctionalResult run_functional(
        const cichar::testgen::Test& test) override;
    void settle() override { inner_->settle(); }
    std::unique_ptr<cichar::device::DeviceUnderTest> clone_cold(
        std::uint64_t noise_seed) const override;
    bool reset_warm(std::uint64_t noise_seed) override {
        return inner_->reset_warm(noise_seed);
    }
    bool save_state(std::string& out) const override {
        return inner_->save_state(out);
    }
    bool load_state(cichar::util::ByteReader& in) override {
        return inner_->load_state(in);
    }

private:
    TimedDut(std::unique_ptr<cichar::device::DeviceUnderTest> owned,
             DeviceCounters& counters)
        : owned_(std::move(owned)), inner_(owned_.get()),
          counters_(&counters) {}

    std::unique_ptr<cichar::device::DeviceUnderTest> owned_;
    cichar::device::DeviceUnderTest* inner_;
    DeviceCounters* counters_;
};

/// Intervals between successive on_generation callbacks, per hunt. A
/// lot calls it from worker threads for several sites at once, so each
/// site keeps its own last stamp.
class GenerationClock {
public:
    /// Marks the start of a hunt's GA phase on `site`.
    void start(std::size_t site);
    /// Records the interval since the site's previous stamp (a site's
    /// first tick without a start() only stamps).
    void tick(std::size_t site);
    /// Drops every site's stamp (between lots, whose site indices repeat).
    void forget();
    [[nodiscard]] std::vector<double> intervals() const;

private:
    mutable std::mutex mutex_;
    std::vector<std::optional<Clock::time_point>> last_;
    std::vector<double> intervals_;
};

/// Values scraped from the process-wide util::telemetry registry. The
/// traced run zeroes the registry before it starts and reads it after.
struct RegistryScrape {
    double search_probes = 0;
    double window_hits = 0;
    double full_fallbacks = 0;
    double nn_candidates_scored = 0;
    double pool_busy_s = 0;
    double queue_wait_p50_s = 0;
    double queue_wait_p95_s = 0;
};

/// Enables registry metrics and zeroes every value.
void reset_registry();
[[nodiscard]] RegistryScrape scrape_registry();

}  // namespace perfbench
