#include "dist/shard_merge.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/trip_cache.hpp"
#include "lot/lot_runner.hpp"
#include "util/binio.hpp"
#include "util/telemetry.hpp"

namespace cichar::dist {

std::string merge_shard_checkpoints(const std::vector<std::string>& blobs,
                                    std::string_view expected_fingerprint,
                                    MergeStats* stats) {
    TELEM_SPAN("dist.merge");
    const auto start = std::chrono::steady_clock::now();
    if (blobs.empty()) {
        throw std::runtime_error("merge: no shard checkpoints given");
    }

    std::string fingerprint(expected_fingerprint);
    // Site index -> distilled result. A std::map keeps the fused payload
    // in site order, which is exactly the order a single-process
    // checkpoint writes — the byte-identity contract.
    std::map<std::size_t, lot::SiteResult> fused;
    std::size_t empty_shards = 0;
    for (std::size_t b = 0; b < blobs.size(); ++b) {
        const std::string shard_name = "shard " + std::to_string(b);
        const std::optional<std::string> blob_fingerprint =
            core::peek_checkpoint_fingerprint(blobs[b]);
        if (!blob_fingerprint) {
            throw std::runtime_error(
                "merge: " + shard_name +
                " is not an intact cichar checkpoint (bad magic, truncated, "
                "or corrupt)");
        }
        if (fingerprint.empty()) fingerprint = *blob_fingerprint;
        // The envelope is intact, so decode fails only on a mismatch.
        std::string payload;
        if (!core::decode_checkpoint(blobs[b], fingerprint, payload)) {
            throw std::runtime_error(
                "merge: " + shard_name +
                " was written by a different lot configuration\n  expected: " +
                fingerprint + "\n  found:    " + *blob_fingerprint);
        }
        const std::vector<lot::SiteResult> sites =
            lot::decode_finished_sites(payload);
        if (sites.empty()) ++empty_shards;
        for (lot::SiteResult site : sites) {
            const std::size_t index = site.site;
            if (!fused.emplace(index, std::move(site)).second) {
                throw std::runtime_error(
                    "merge: site " + std::to_string(index) + " appears in " +
                    shard_name +
                    " and an earlier shard (overlapping site ranges)");
            }
        }
    }

    std::vector<lot::SiteResult> ordered;
    ordered.reserve(fused.size());
    for (auto& [index, site] : fused) ordered.push_back(std::move(site));
    const std::string merged = core::encode_checkpoint(
        fingerprint, lot::encode_finished_sites(ordered));

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (stats) {
        stats->shards = blobs.size();
        stats->sites = ordered.size();
        stats->empty_shards = empty_shards;
        stats->merge_seconds = seconds;
    }
    if (util::telemetry::metrics_enabled()) {
        namespace telem = util::telemetry;
        static auto& merges = telem::Registry::instance().counter(
            "cichar_dist_merges_total");
        static auto& merged_sites = telem::Registry::instance().counter(
            "cichar_dist_merged_sites_total");
        static auto& merge_seconds = telem::Registry::instance().gauge(
            "cichar_dist_merge_seconds");
        merges.add();
        merged_sites.add(ordered.size());
        merge_seconds.set(seconds);
    }
    return merged;
}

std::string merge_trip_cache_files(const std::vector<std::string>& in_paths,
                                   const std::string& out_path) {
    if (in_paths.empty()) {
        throw std::runtime_error("merge: no trip-cache files given");
    }
    std::string identity;
    std::vector<core::TripPointCache> caches;
    caches.reserve(in_paths.size());
    std::size_t total_entries = 0;
    for (const std::string& path : in_paths) {
        const std::optional<std::string> bytes = util::read_file(path);
        if (!bytes) {
            throw std::runtime_error("merge: cannot read " + path);
        }
        const std::optional<std::string> file_identity =
            core::TripPointCache::peek_identity(*bytes);
        if (!file_identity) {
            throw std::runtime_error(
                "merge: " + path +
                " is not an intact cichar trip cache (bad magic, truncated, "
                "or corrupt)");
        }
        if (identity.empty()) identity = *file_identity;
        if (*file_identity != identity) {
            throw std::runtime_error(
                "merge: " + path +
                " holds a different device identity\n  expected: " + identity +
                "\n  found:    " + *file_identity);
        }
        core::TripPointCache cache(1u << 20);
        if (!cache.load(*bytes, identity)) {
            throw std::runtime_error("merge: " + path +
                                     " has a malformed entry list");
        }
        total_entries += cache.size();
        caches.push_back(std::move(cache));
    }

    core::TripPointCache merged(std::max<std::size_t>(total_entries, 1));
    for (const core::TripPointCache& cache : caches) {
        merged.merge_from(cache);
    }
    if (!util::atomic_write_file(out_path, merged.save(identity))) {
        throw std::runtime_error("merge: cannot write " + out_path);
    }
    return identity;
}

}  // namespace cichar::dist
