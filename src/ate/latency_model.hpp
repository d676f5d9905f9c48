// Tester latency model. The modeled per-measurement seconds (relay/level
// setup + vector cycles) feed the ledger; the emulated hardware latency
// (`realtime_fraction`) is *spent* in one of two places: a Tester built
// with it sleeps it inline per measurement (the session tester, learning
// and shmoo), while the hunt's replicas are built without it and
// AsyncTester turns the tester-seconds a whole fitness slot ledgered into
// one completion deadline, keeping the CPU busy underneath. Both use
// inflight_seconds(), so they agree on wall clock, and the injectable
// sleep hook lets unit tests run the emulated path against a fake clock.
#pragma once

#include <cstdint>
#include <functional>

namespace cichar::ate {

class LatencyModel {
public:
    /// Replaces the real `sleep_for` in `block()`; receives the seconds
    /// that would have been slept. For fake-clock unit tests.
    using SleepFn = std::function<void(double seconds)>;

    LatencyModel() = default;
    LatencyModel(double setup_seconds, double cycle_seconds_override,
                 double realtime_fraction)
        : setup_seconds_(setup_seconds),
          cycle_seconds_override_(cycle_seconds_override),
          realtime_fraction_(realtime_fraction) {}

    /// Modeled tester time for one measurement: setup plus `cycles` at the
    /// test's clock period (or the configured override). Ledger currency —
    /// identical whether latency emulation is on or off.
    [[nodiscard]] double modeled_seconds(std::uint64_t cycles,
                                         double clock_period_ns) const noexcept {
        const double cycle_s = cycle_seconds_override_ > 0.0
                                   ? cycle_seconds_override_
                                   : clock_period_ns * 1e-9;
        return setup_seconds_ + static_cast<double>(cycles) * cycle_s;
    }

    /// Wall-clock seconds a request of `modeled` tester-seconds keeps the
    /// (emulated) hardware busy: a Tester sleeps this, the completion
    /// queue schedules a job's deadline this far past its submission.
    [[nodiscard]] double inflight_seconds(double modeled) const noexcept {
        return modeled * realtime_fraction_;
    }

    [[nodiscard]] bool emulated() const noexcept {
        return realtime_fraction_ > 0.0;
    }
    [[nodiscard]] double realtime_fraction() const noexcept {
        return realtime_fraction_;
    }

    /// Blocks the calling thread for `seconds` (no-op when <= 0), through
    /// the test hook when one is installed.
    void block(double seconds) const;

    void set_sleep(SleepFn fn) { sleep_ = std::move(fn); }

private:
    double setup_seconds_ = 5e-4;
    double cycle_seconds_override_ = 0.0;
    double realtime_fraction_ = 0.0;
    SleepFn sleep_;  // empty = real std::this_thread::sleep_for
};

}  // namespace cichar::ate
