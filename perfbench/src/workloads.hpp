// The benchmark's three workloads. A *campaign* is one learn + worst-case
// hunt on one die: one hunt, or one lot site. Workloads run campaigns in
// batches; every campaign seed is derived from the batch seed, which the
// benchmark derives from its --seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// Quick tier: the same workloads shrunk so the benchmark's smoke test
/// runs in seconds. Full tier: the configurations the benchmark measures.
enum class Tier { kQuick, kFull };

/// What one campaign produced, plus the result of its correctness checks.
struct CampaignOutcome {
    std::uint64_t applications = 0;  ///< tester pattern applications
    double tester_s = 0.0;           ///< modeled tester seconds
    double wcr = 0.0;                ///< worst-case ratio of the found worst case
    std::string failure;             ///< empty when every check passed
};

/// Per-layer sums collected by a traced batch. Campaign-level fields are
/// sums over campaigns; main.cpp divides by the campaign count.
struct LayerTrace {
    DeviceCounters device;
    GenerationClock generations;
    double learn_s = 0.0;
    double learn_device_s = 0.0;  ///< device busy time inside learn()
    double optimize_s = 0.0;
    double campaign_s = 0.0;
    double replay_s = 0.0;  ///< wall spent in replays, inside traced batches
    double nn_score_s = 0.0;
    std::uint64_t nn_score_calls = 0;
    double expand_ns = 0.0;
    std::uint64_t expand_calls = 0;
    double features_ns = 0.0;
    std::uint64_t features_calls = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t slab_acquires = 0;
    std::uint64_t slab_recycles = 0;
    std::uint64_t checkpoint_writes = 0;
    std::uint64_t checkpoint_bytes = 0;
    double checkpoint_write_s = 0.0;
    double checkpoint_read_s = 0.0;
    /// Per lot: median site completion time and last-minus-median, from
    /// on_progress stamps relative to the lot start.
    std::vector<double> lot_site_done_p50_s;
    std::vector<double> lot_tail_s;
};

class Workload {
public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Leading batches the count and quality metrics cover, so they
    /// repeat exactly at a fixed seed; a timed run executes at least these.
    [[nodiscard]] virtual std::size_t counted_batches() const = 0;
    /// Worker threads the workload's campaigns use.
    [[nodiscard]] virtual std::size_t jobs() const = 0;
    /// Share of modeled tester time slept as emulated ATE latency.
    [[nodiscard]] virtual double realtime_fraction() const { return 0.0; }
    /// One untimed campaign, so lazy set-up finishes before timing.
    virtual void warm_up(std::uint64_t seed) = 0;
    /// Runs one batch. `trace` is null in timed runs.
    [[nodiscard]] virtual std::vector<CampaignOutcome> run_batch(
        std::uint64_t seed, LayerTrace* trace) = 0;
};

/// Builds "hunt", "lot_latency" or "hunt_checkpoint"; nullptr for any
/// other name. `scratch_dir` is an existing directory for checkpoint files.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, Tier tier, const std::string& scratch_dir);

/// Independent 64-bit seed number `index` of the stream rooted at `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// ---------------------------------------------------------------------
// Single campaigns, exposed for the benchmark's own identity tests.

/// Rendered result of one kill-and-resume (or uninterrupted) hunt on
/// the hunt_checkpoint configuration.
struct CheckpointedHunt {
    CampaignOutcome outcome;
    std::string rendered;  ///< report + tester ledger + worst-case database
    bool aborted_first_leg = false;
};

/// Runs the hunt_checkpoint campaign for `seed`. With `kill` the hunt is
/// aborted halfway and resumed from its checkpoint file in `scratch_dir`;
/// without, it runs uninterrupted (still checkpointing every generation).
[[nodiscard]] CheckpointedHunt run_checkpointed_hunt(
    Tier tier, std::uint64_t seed, bool kill, const std::string& scratch_dir,
    LayerTrace* trace = nullptr);

/// Renders the LotReport of the lot_latency configuration at `jobs`.
[[nodiscard]] std::string render_lot(Tier tier, std::uint64_t seed,
                                     std::size_t jobs);

}  // namespace perfbench
