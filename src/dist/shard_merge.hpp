// Shard-artifact fusion behind `cichar merge`. Two artifact kinds:
//
// * Lot shard checkpoints — each worker's core::checkpoint envelope
//   holding its finished-site payload (distilled trip records, risk,
//   health counters, and MeasurementLog ledger: the partial LotReport
//   state). merge_shard_checkpoints() fuses disjoint site sets into one
//   envelope that is byte-identical to the checkpoint a single-process
//   run of the whole lot would have written — the determinism contract
//   the distributed service rests on.
//
// * Persistent trip caches (CICHTPC3) — per-shard warm-start caches
//   fused entry-wise so a follow-up hunt starts warm across the union.
//
// All validation is strict: fingerprint/identity mismatches, overlapping
// site ranges, and corrupt blobs throw instead of producing a silently
// wrong artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cichar::dist {

/// What a merge did — rendered by the CLI and mirrored into telemetry.
struct MergeStats {
    std::size_t shards = 0;        ///< input blobs fused
    std::size_t sites = 0;         ///< finished sites in the output
    std::size_t empty_shards = 0;  ///< inputs that carried no finished site
    double merge_seconds = 0.0;    ///< wall clock (reporting only)
};

/// Fuses per-shard lot checkpoint files (raw file contents, envelope
/// included) into one enveloped blob. Every input must carry the same
/// lot fingerprint (`expected_fingerprint` when non-empty, otherwise the
/// first blob's); site sets must be disjoint. An input with zero
/// finished sites is legal (a shard that was killed before its first
/// site) and counted in `stats.empty_shards`. Output sites are ordered
/// by site index — byte-identical to a single-process checkpoint of the
/// same finished set. Throws std::runtime_error on empty input, a blob
/// that fails envelope/payload decoding, a fingerprint mismatch, or a
/// duplicate site.
[[nodiscard]] std::string merge_shard_checkpoints(
    const std::vector<std::string>& blobs,
    std::string_view expected_fingerprint = {}, MergeStats* stats = nullptr);

/// Loads every CICHTPC3 trip-cache file, requires one common device
/// identity across them, fuses entries in argument order (a later
/// shard's record wins a key collision), and atomically writes the
/// merged cache to `out_path`. Returns the shared identity. Throws
/// std::runtime_error on unreadable/corrupt inputs, identity mismatch,
/// or a failed write.
std::string merge_trip_cache_files(const std::vector<std::string>& in_paths,
                                   const std::string& out_path);

}  // namespace cichar::dist
