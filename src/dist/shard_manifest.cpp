#include "dist/shard_manifest.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "util/binio.hpp"

namespace cichar::dist {

const char* to_string(ShardState state) noexcept {
    switch (state) {
        case ShardState::kPending: return "pending";
        case ShardState::kRunning: return "running";
        case ShardState::kDone: return "done";
        case ShardState::kFailed: return "failed";
    }
    return "?";
}

std::string ShardEntry::range_spec() const {
    return std::to_string(site_begin) + ":" + std::to_string(site_end);
}

ShardManifest ShardManifest::partition(std::string lot_fingerprint,
                                       std::size_t sites,
                                       std::size_t shard_count,
                                       const std::string& work_dir) {
    if (shard_count == 0 || shard_count > sites) {
        throw std::invalid_argument(
            "shard manifest: shard count must be in [1, sites], got " +
            std::to_string(shard_count) + " for " + std::to_string(sites) +
            " sites");
    }
    ShardManifest manifest;
    manifest.lot_fingerprint = std::move(lot_fingerprint);
    manifest.sites = sites;
    manifest.shards.reserve(shard_count);
    const std::size_t base = sites / shard_count;
    const std::size_t remainder = sites % shard_count;
    std::size_t next = 0;
    for (std::size_t k = 0; k < shard_count; ++k) {
        ShardEntry shard;
        shard.index = k;
        shard.site_begin = next;
        next += base + (k < remainder ? 1 : 0);
        shard.site_end = next;
        const std::string stem =
            work_dir + "/shard_" + std::to_string(k);
        shard.checkpoint = stem + ".ckpt";
        shard.heartbeat = stem + ".hb";
        manifest.shards.push_back(std::move(shard));
    }
    return manifest;
}

std::string ShardManifest::encode() const {
    std::string payload;
    util::put_u32(payload, kShardManifestVersion);
    util::put_string(payload, lot_fingerprint);
    util::put_u64(payload, sites);
    util::put_u64(payload, shards.size());
    for (const ShardEntry& shard : shards) {
        util::put_u64(payload, shard.index);
        util::put_u64(payload, shard.site_begin);
        util::put_u64(payload, shard.site_end);
        util::put_string(payload, shard.checkpoint);
        util::put_string(payload, shard.heartbeat);
        util::put_u64(payload, shard.attempts);
        util::put_u64(payload, static_cast<std::uint64_t>(shard.state));
    }
    return util::seal(kShardManifestMagic, payload);
}

std::optional<ShardManifest> ShardManifest::decode(std::string_view contents) {
    const std::optional<std::string_view> payload =
        util::unseal(kShardManifestMagic, contents);
    if (!payload) return std::nullopt;
    try {
        util::ByteReader in(*payload);
        if (in.get_u32() != kShardManifestVersion) return std::nullopt;
        ShardManifest manifest;
        manifest.lot_fingerprint = in.get_string();
        manifest.sites = static_cast<std::size_t>(in.get_u64());
        // A shard entry is at least 7 u64 words (its strings may be empty).
        const std::uint64_t count = in.get_count(7 * 8);
        if (count > manifest.sites) return std::nullopt;
        manifest.shards.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t k = 0; k < count; ++k) {
            ShardEntry shard;
            shard.index = static_cast<std::size_t>(in.get_u64());
            shard.site_begin = static_cast<std::size_t>(in.get_u64());
            shard.site_end = static_cast<std::size_t>(in.get_u64());
            shard.checkpoint = in.get_string();
            shard.heartbeat = in.get_string();
            shard.attempts = in.get_u64();
            const std::uint64_t state = in.get_u64();
            if (state > static_cast<std::uint64_t>(ShardState::kFailed)) {
                return std::nullopt;
            }
            shard.state = static_cast<ShardState>(state);
            if (shard.site_begin >= shard.site_end ||
                shard.site_end > manifest.sites) {
                return std::nullopt;
            }
            manifest.shards.push_back(std::move(shard));
        }
        if (!in.at_end()) return std::nullopt;
        return manifest;
    } catch (const std::exception&) {
        return std::nullopt;  // truncated / malformed
    }
}

bool ShardManifest::save(const std::string& path) const {
    return util::atomic_write_file(path, encode());
}

std::optional<ShardManifest> ShardManifest::load(const std::string& path) {
    const std::optional<std::string> contents = util::read_file(path);
    if (!contents.has_value()) return std::nullopt;
    return decode(*contents);
}

bool ShardManifest::complete() const noexcept {
    return std::all_of(
        shards.begin(), shards.end(),
        [](const ShardEntry& s) { return s.state == ShardState::kDone; });
}

}  // namespace cichar::dist
