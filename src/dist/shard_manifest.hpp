// Versioned, checksummed shard manifest — the scheduler's durable record
// of how a lot was partitioned and how far each shard has come. The
// file is the sealed envelope of util/binio:
//
//   magic "CISHMAN2" | payload | checksum64(payload)
//
// with the lot fingerprint inside the payload, so a manifest written for
// a different lot configuration (or a torn/bit-flipped file) is refused
// instead of silently steering workers at the wrong shards. The
// scheduler rewrites the manifest atomically on every state transition;
// a crashed coordinator restarts from the last consistent picture.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cichar::dist {

inline constexpr std::string_view kShardManifestMagic = "CISHMAN2";
inline constexpr std::uint32_t kShardManifestVersion = 2;

/// Lifecycle of one shard, persisted so a restarted coordinator (and CI
/// artifact readers) can see exactly where every shard stood.
enum class ShardState : std::uint8_t {
    kPending,  ///< not yet launched
    kRunning,  ///< worker process in flight
    kDone,     ///< checkpoint verified complete for the shard's range
    kFailed,   ///< exhausted its attempts
};

[[nodiscard]] const char* to_string(ShardState state) noexcept;

/// One contiguous site-range shard and its bookkeeping.
struct ShardEntry {
    std::size_t index = 0;       ///< shard number, 0-based
    std::size_t site_begin = 0;  ///< first site (inclusive)
    std::size_t site_end = 0;    ///< last site (exclusive)
    std::string checkpoint;      ///< per-shard checkpoint blob path
    std::string heartbeat;       ///< worker liveness file path
    std::uint64_t attempts = 0;  ///< worker launches so far
    ShardState state = ShardState::kPending;

    [[nodiscard]] std::size_t site_count() const noexcept {
        return site_end - site_begin;
    }
    /// "A:B" as the worker's --site-range operand.
    [[nodiscard]] std::string range_spec() const;
};

/// The whole partition plan plus identity: which lot (fingerprint), how
/// many sites, and every shard's range and progress.
struct ShardManifest {
    std::string lot_fingerprint;
    std::size_t sites = 0;
    std::vector<ShardEntry> shards;

    /// Splits `sites` into `shard_count` contiguous, disjoint,
    /// gap-free ranges (difference in size at most one, earlier shards
    /// take the remainder). Checkpoint/heartbeat paths are derived from
    /// `work_dir` ("<work_dir>/shard_K.ckpt" / ".hb"). Throws
    /// std::invalid_argument when shard_count is 0 or exceeds `sites`.
    [[nodiscard]] static ShardManifest partition(
        std::string lot_fingerprint, std::size_t sites,
        std::size_t shard_count, const std::string& work_dir);

    /// Sealed payload, byte-stable for identical state.
    [[nodiscard]] std::string encode() const;

    /// Inverse of encode(). nullopt on bad magic, unsupported version,
    /// checksum mismatch, truncation, or any malformed field — a corrupt
    /// manifest never half-loads. Never throws.
    [[nodiscard]] static std::optional<ShardManifest> decode(
        std::string_view contents);

    /// encode + util::atomic_write_file. Returns success.
    [[nodiscard]] bool save(const std::string& path) const;

    /// Reads + decodes a manifest file; nullopt when missing or corrupt.
    [[nodiscard]] static std::optional<ShardManifest> load(
        const std::string& path);

    /// All shards kDone.
    [[nodiscard]] bool complete() const noexcept;
};

}  // namespace cichar::dist
